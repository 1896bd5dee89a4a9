package exp

import (
	"math"
	"reflect"
	"testing"

	"scoop/internal/core"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// atQuick returns a single-trial configuration at the quick length
// (22 virtual minutes, 6 of them warm-up).
func atQuick(p policy.Name, source string) Config {
	cfg := Default()
	cfg.Policy = p
	cfg.Source = source
	shorten(&cfg)
	return cfg
}

// shorten cuts a configuration to one trial at the quick length.
func shorten(cfg *Config) {
	cfg.Trials = 1
	cfg.Duration = 22 * netsim.Minute
	cfg.Warmup = 6 * netsim.Minute
}

// quick is atQuick, shrunk further under -short (the full suite
// simulates ~18s of wall time) to warm-up plus enough active time for
// the assertions that use it to stay robust.
func quick(p policy.Name, source string) Config {
	cfg := atQuick(p, source)
	if testing.Short() {
		cfg.Duration = 12 * netsim.Minute
		cfg.Warmup = 4 * netsim.Minute
	}
	return cfg
}

func total(t *testing.T, cfg Config) float64 {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Breakdown.Total()
}

// The paper's headline comparison (Figure 3, middle): under the
// default workload SCOOP beats both send-to-base and store-local.
// Always run at the quick length: measured over 25 seeds (REAL, N=63),
// the 8 active minutes of the -short length cannot carry the claim at
// all (BASE/SCOOP 1.06–1.60, LOCAL/SCOOP 0.88–1.30), the quick length gives
// BASE/SCOOP 1.36–1.86 (median 1.62) and LOCAL/SCOOP 1.13–1.58, and
// the paper's 40/10 minutes 1.40–2.03 and 1.26–1.65.
func TestPolicyOrderingOnReal(t *testing.T) {
	scoop := total(t, atQuick(policy.Scoop, "real"))
	local := total(t, atQuick(policy.Local, "real"))
	base := total(t, atQuick(policy.Base, "real"))
	if scoop >= base {
		t.Fatalf("SCOOP (%.0f) not cheaper than BASE (%.0f)", scoop, base)
	}
	if scoop >= local {
		t.Fatalf("SCOOP (%.0f) not cheaper than LOCAL (%.0f)", scoop, local)
	}
	if base/scoop < 1.25 {
		t.Fatalf("SCOOP/BASE improvement only %.2fx", base/scoop)
	}
}

// Figure 3 (right): UNIQUE is SCOOP's best case (perfect locality);
// GAUSSIAN — spatially uncorrelated producers — is the worst of the
// localized sources. REAL vs RANDOM is within single-trial noise at
// this scale, so only the robust orderings are asserted; the Figure 3
// tables of testdata/fig-3.json record the paper-scale picture.
func TestSourceOrdering(t *testing.T) {
	unique := total(t, quick(policy.Scoop, "unique"))
	real := total(t, quick(policy.Scoop, "real"))
	random := total(t, quick(policy.Scoop, "random"))
	gaussian := total(t, quick(policy.Scoop, "gaussian"))
	if unique >= random {
		t.Fatalf("UNIQUE (%.0f) not cheaper than RANDOM (%.0f)", unique, random)
	}
	if unique >= real {
		t.Fatalf("UNIQUE (%.0f) not cheaper than REAL (%.0f)", unique, real)
	}
	if real >= gaussian {
		t.Fatalf("REAL (%.0f) not cheaper than GAUSSIAN (%.0f)", real, gaussian)
	}
}

// EQUAL's index never changes, so mapping dissemination is almost
// entirely suppressed (paper: "very few mapping messages").
func TestEqualSuppressesMappings(t *testing.T) {
	requal, err := Run(quick(policy.Scoop, "equal"))
	if err != nil {
		t.Fatal(err)
	}
	rreal, err := Run(quick(policy.Scoop, "real"))
	if err != nil {
		t.Fatal(err)
	}
	if requal.Breakdown.Mapping*5 > rreal.Breakdown.Mapping {
		t.Fatalf("EQUAL mapping cost %.0f not far below REAL's %.0f",
			requal.Breakdown.Mapping, rreal.Breakdown.Mapping)
	}
	if requal.Stats.IndexesSuppressed == 0 {
		t.Fatal("EQUAL never suppressed an index regeneration")
	}
}

// Comparator sanity: LOCAL sends no data or statistics traffic; BASE
// sends nothing but data.
func TestPolicyTrafficShapes(t *testing.T) {
	rl, err := Run(quick(policy.Local, "real"))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Breakdown.Data != 0 || rl.Breakdown.Summary != 0 || rl.Breakdown.Mapping != 0 {
		t.Fatalf("LOCAL sent non-query traffic: %+v", rl.Breakdown)
	}
	rb, err := Run(quick(policy.Base, "real"))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Breakdown.Query != 0 || rb.Breakdown.Reply != 0 ||
		rb.Breakdown.Summary != 0 || rb.Breakdown.Mapping != 0 {
		t.Fatalf("BASE sent non-data traffic: %+v", rb.Breakdown)
	}
}

// The paper's HASH column, derived from a BASE run, is data-dominated,
// splits its round trips evenly between queries and replies, and sends
// no statistics traffic. Only a BASE run calibrates it.
func TestAnalyticalHash(t *testing.T) {
	base, err := Run(quick(policy.Base, "real"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := DeriveHash(base)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Breakdown
	if b.Data == 0 || b.Data <= b.Query+b.Reply {
		t.Fatalf("hash is not data-dominated: %+v", b)
	}
	if b.Summary != 0 || b.Mapping != 0 {
		t.Fatal("hash has statistics overhead")
	}
	if b.Query != b.Reply {
		t.Fatalf("hash round trips not split evenly: %f vs %f", b.Query, b.Reply)
	}
	if _, err := DeriveHash(Result{Config: atQuick(policy.Scoop, "real")}); err == nil {
		t.Fatal("derived the hash column from a scoop run")
	}
}

// The paper's method is an oracle for the simulated HASH: on a lossless
// network, hashsim's data messages stay within a band of the calibrated
// analytical HASH's, and it stores a band of its readings. The model
// charges every reading its whole producer→owner path; hashsim loses
// readings on the way, which then pay only part of theirs. Bands from a
// census of seeds 1–30 at the quick length on each topology: the ratio
// was 0.44–0.87 on uniform and 0.57–0.95 on grid, the stored share
// 0.70–0.88 and 0.53–0.76. Without the calibration factor the ratio was
// 0.90–1.71; with every value hashed to node 1, under 0.3.
func TestHashSimMatchesAnalyticalHash(t *testing.T) {
	for _, topo := range []string{"uniform", "grid"} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := atQuick(policy.HashSim, "real")
			cfg.Topology, cfg.Seed = topo, seed
			sim, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = policy.Base
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			model, err := DeriveHash(base)
			if err != nil {
				t.Fatal(err)
			}
			if r := sim.Breakdown.Data / model.Breakdown.Data; r < 0.4 || r > 1 {
				t.Errorf("%s seed %d: hashsim data / analytical data = %.3f, want within [0.4, 1]", topo, seed, r)
			}
			if s := sim.Stats.DataSuccessRate(); s < 0.5 || s > 0.9 {
				t.Errorf("%s seed %d: hashsim stored %.3f of its readings, want within [0.5, 0.9]", topo, seed, s)
			}
		}
	}
}

// The simulated HASH extension runs and stores data across the network.
func TestSimulatedHash(t *testing.T) {
	r, err := Run(quick(policy.HashSim, "real"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.Data == 0 {
		t.Fatal("hashsim moved no data")
	}
	if r.Stats.StoredAtOwner == 0 {
		t.Fatal("hashsim stored nothing at hash owners")
	}
}

// Paper delivery bands, with slack for the harsher simulated radio:
// the paper reports 93% data stored / 85% owner hit / 78% replies.
func TestDeliveryBands(t *testing.T) {
	r, err := Run(quick(policy.Scoop, "real"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats.DataSuccessRate(); got < 0.75 {
		t.Fatalf("data success %.2f below band", got)
	}
	if got := r.Stats.OwnerHitRate(); got < 0.6 {
		t.Fatalf("owner hit rate %.2f below band", got)
	}
	if got := r.Stats.QuerySuccessRate(); got < 0.25 {
		t.Fatalf("query success %.2f below band", got)
	}
}

// Figure 4's two fixed points: LOCAL's cost is flat in the queried
// fraction, and SCOOP beats BASE when few nodes are queried.
func TestFigure4Endpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	lo := quick(policy.Scoop, "real")
	lo.NodePct = 0.05
	scoopLo := total(t, lo)

	baseCfg := quick(policy.Base, "real")
	baseCfg.NodePct = 0.05
	baseTotal := total(t, baseCfg)

	if scoopLo >= baseTotal {
		t.Fatalf("SCOOP at 5%% (%.0f) not cheaper than BASE (%.0f)", scoopLo, baseTotal)
	}

	l1 := quick(policy.Local, "real")
	l1.NodePct = 0.10
	l2 := quick(policy.Local, "real")
	l2.NodePct = 0.90
	a, b := total(t, l1), total(t, l2)
	ratio := a / b
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("LOCAL cost varies %.2fx across queried fractions; should be flat", ratio)
	}
}

// Figure 5's fixed point: LOCAL benefits most from a falling query
// rate (it has no other cost).
func TestFigure5LocalSlope(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	fast := quick(policy.Local, "real")
	fast.QueryInterval = 5 * netsim.Second
	slow := quick(policy.Local, "real")
	slow.QueryInterval = 45 * netsim.Second
	f, s := total(t, fast), total(t, slow)
	if s >= f {
		t.Fatalf("LOCAL at 45s (%.0f) not cheaper than at 5s (%.0f)", s, f)
	}
	if f/s < 2 {
		t.Fatalf("LOCAL only %.1fx cheaper at 9x lower query rate", f/s)
	}
}

func TestScalesTo100Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	cfg := quick(policy.Scoop, "real")
	cfg.N = 101
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DataSuccessRate() < 0.6 {
		t.Fatalf("data success %.2f at 100 nodes", r.Stats.DataSuccessRate())
	}
}

// TestTrialsRunConcurrentlyAndMerge holds Run's fold of PerTrial into a
// Result, field by field through reflection, so a field added to both
// without a fold fails here: Stats is the sum by RunStats.Add, every
// leaf of Agg the sum, and every other leaf the mean. The aggregate mix
// makes each leaf non-zero in some trial, so a missing fold shows.
func TestTrialsRunConcurrentlyAndMerge(t *testing.T) {
	cfg := quick(policy.Scoop, "real")
	cfg.Trials = 3
	cfg.AggRatio = 0.5
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerTrial) != 3 {
		t.Fatalf("per-trial results: %d", len(r.PerTrial))
	}
	rv := reflect.ValueOf(r)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if name == "Config" || name == "PerTrial" {
			continue
		}
		if name == "Stats" {
			var want core.RunStats
			for _, tr := range r.PerTrial {
				want.Add(&tr.Stats)
			}
			if !reflect.DeepEqual(r.Stats, want) {
				t.Errorf("Stats %+v, want the trials' sum %+v", r.Stats, want)
			}
			continue
		}
		per := make([]reflect.Value, len(r.PerTrial))
		for k, tr := range r.PerTrial {
			if per[k] = reflect.ValueOf(tr).FieldByName(name); !per[k].IsValid() {
				t.Fatalf("Result.%s has no TrialResult field to fold", name)
			}
		}
		checkFold(t, name, rv.Field(i), per, name == "Agg")
	}
}

// notFolded lists the Result leaves that stay on PerTrial: the most
// loaded node is one trial's node, not a quantity to average.
var notFolded = map[string]bool{"Energy.MostLoadedNode": true, "Energy.MostLoadedJ": true}

// checkFold compares got, a Result leaf or struct, with the sum (or
// mean) of the same field across per.
func checkFold(t *testing.T, path string, got reflect.Value, per []reflect.Value, sum bool) {
	t.Helper()
	if got.Kind() == reflect.Struct {
		for i := 0; i < got.NumField(); i++ {
			p := path + "." + got.Type().Field(i).Name
			if notFolded[p] {
				continue
			}
			sub := make([]reflect.Value, len(per))
			for k := range per {
				sub[k] = per[k].Field(i)
			}
			checkFold(t, p, got.Field(i), sub, sum)
		}
		return
	}
	num := func(v reflect.Value) float64 {
		switch {
		case v.CanInt():
			return float64(v.Int())
		case v.CanUint():
			return float64(v.Uint())
		case v.CanFloat():
			return v.Float()
		}
		t.Fatalf("%s: %s is not a number to fold", path, v.Type())
		return 0
	}
	var want float64
	nonzero := false
	for _, v := range per {
		want += num(v)
		nonzero = nonzero || num(v) != 0
	}
	if !sum {
		want /= float64(len(per))
	}
	if g := num(got); math.Abs(g-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("Result.%s = %v, want %v", path, g, want)
	}
	if !nonzero {
		t.Errorf("Result.%s is zero in every trial, so its fold goes unchecked", path)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := quick(policy.Scoop, "real")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown.Total() != b.Breakdown.Total() {
		t.Fatalf("same seed, different totals: %.0f vs %.0f",
			a.Breakdown.Total(), b.Breakdown.Total())
	}
}

func TestUnknownConfigsRejected(t *testing.T) {
	cfg := quick(policy.Scoop, "nope")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown source accepted")
	}
	cfg = quick(policy.Scoop, "real")
	cfg.Topology = "torus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
	cfg = quick("teleport", "real")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// The paper's energy discussion (§6). Two parts are robustly
// reproducible under a byte-accurate radio-energy model: the SCOOP
// root's always-on radio drains its battery in about two weeks
// ("the battery on the root in SCOOP would have to be replaced every
// two weeks"), far ahead of duty-cycled nodes; and communication
// dominates node energy ("up to 90% … due to communication"). The
// paper's 3× node-lifetime gap between SCOOP and LOCAL does not
// emerge from byte counts (LOCAL's replies are mostly empty and
// small) — the energy table of testdata/fig-3.json shows both.
func TestEnergyShape(t *testing.T) {
	scoop, err := Run(quick(policy.Scoop, "real"))
	if err != nil {
		t.Fatal(err)
	}
	e := scoop.Energy
	if e.RootDays < 10 || e.RootDays > 22 {
		t.Fatalf("root lifetime %.1f days; paper says about two weeks", e.RootDays)
	}
	if e.RootDays*5 >= e.AvgNodeDays {
		t.Fatalf("root (%.0f d) should drain far ahead of the average node (%.0f d)",
			e.RootDays, e.AvgNodeDays)
	}
	if e.CommsFraction < 0.5 {
		t.Fatalf("comms share %.2f; paper says communication dominates", e.CommsFraction)
	}
}
