package exp

import (
	"flag"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/query"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// discard is a trace sink that drops every block.
type discard struct{}

func (discard) Record(*trace.Block) {}
func (discard) Close() error        { return nil }

// TestSeedFuzz is a seed-randomised cross-engine differential fuzz:
// short churn, drift and aggregate-mix runs across many seeds, each
// executed under the invariant checker on BOTH engines — the serial
// event loop and the 4-region parallel one — with every exported
// deterministic RunStats counter compared field-by-field. It exists to
// catch two bug classes at once: state-machine paths that only a
// particular interleaving of churn, retransmission and reindexing hits
// (any panic or conservation violation fails the specific (config,
// seed) pair by name), and parallel-engine divergences that the
// hand-picked differential scenarios happen not to reach.
func TestSeedFuzz(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	scenarios := []struct {
		name string
		mut  func(cfg *Config, seed int64)
	}{
		{"churn", func(cfg *Config, seed int64) {
			script := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, 0.25, 0, seed+3)
			cfg.Dynamics = &script
			cfg.ReindexInterval = 2 * netsim.Minute
		}},
		{"drift", func(cfg *Config, seed int64) {
			script := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, 0, 0.5, seed+5)
			cfg.Dynamics = &script
			cfg.ReindexInterval = 2 * netsim.Minute
		}},
		{"agg", func(cfg *Config, seed int64) {
			cfg.AggRatio = 1
			cfg.QueryWidth = 0.4
			cfg.AggErrBudget = 0.25
		}},
		{"faults", func(cfg *Config, seed int64) {
			cfg.Faults = "campaign"
			cfg.LinkLoss = 0.3
			cfg.QueryDeadline = 12 * netsim.Second
			cfg.QueryRetryMax = 3
			cfg.AggRatio = 0.5
			cfg.QueryWidth = 0.4
			cfg.AggErrBudget = 0.25
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < seeds; i++ {
				seed := int64(1000 + 7919*i)
				cfg := Default()
				cfg.Policy = policy.Scoop
				cfg.N = 16
				cfg.Duration = 10 * netsim.Minute
				cfg.Warmup = 3 * netsim.Minute
				cfg.Trials = 1
				cfg.Seed = seed
				sc.mut(&cfg, seed)
				serial, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d: %v", sc.name, seed, err)
				}
				cfg.Regions = 4
				par, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d (4 regions): %v", sc.name, seed, err)
				}
				sref, spar := statsFields(&serial.Stats), statsFields(&par.Stats)
				for name, want := range sref {
					if got := spar[name]; got != want {
						t.Errorf("%s seed %d: RunStats.%s = %d on 4 regions, serial %d",
							sc.name, seed, name, got, want)
					}
				}
				if serial.Breakdown != par.Breakdown {
					t.Errorf("%s seed %d: breakdown %+v on 4 regions, serial %+v",
						sc.name, seed, par.Breakdown, serial.Breakdown)
				}
			}
		})
	}
}

// TestInvariantCheckerAcrossPolicies runs every simulated policy once
// under the checker: the conservation bookkeeping has to understand
// preloaded-index comparators, not just Scoop.
func TestInvariantCheckerAcrossPolicies(t *testing.T) {
	for _, p := range []policy.Name{policy.Scoop, policy.Local, policy.Base, policy.HashSim} {
		cfg := quick(p, "real")
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// ramp is a caller-supplied Config.Sampler: node id reads lo+id+minute,
// clamped into [lo, hi].
type ramp struct{ lo, hi int }

func (r ramp) Next(id netsim.NodeID, t netsim.Time) int {
	return min(max(r.lo+int(id)+int(t/netsim.Minute), r.lo), r.hi)
}
func (r ramp) Domain() (int, int) { return r.lo, r.hi }
func (r ramp) Name() string       { return "ramp" }

// FuzzValidate closes the gap between validation and running: fuzzed
// values land on every data field of Config, one bogus name per name
// list and out-of-range numbers included, and whatever Validate accepts
// must get through NewTrial, Run and Finish without a panic or an
// error, the invariant checker included (TestMain forces it on). Runs
// stay small: N ≤ 64 and at most two virtual minutes, with intervals
// down to the 1 ms tick; while fuzzing, inputs past overBudget return
// early. When the Trace bit is set, TraceSinks hands every trial a
// sink that drops what it is given.
//
// names picks the policy, source, topology and fault scenario, three
// bits each; flags switches DisableReindex, Trace, Profile, a
// dynamics.Standard script (churn and drift in percent) and a ramp
// Sampler over [lo, hi] (bits 0–4); ops is a bit set of
// aggregate operators; the int8 ratios are percent.
func FuzzValidate(f *testing.F) {
	const (
		scoopUniform = 0                      // scoop, unique, uniform, no faults
		realGrid     = 2<<3 | 2<<6            // scoop, real, grid
		campaign     = realGrid | 5<<9        // ... plus the composed fault campaign
		hashsimEqual = 4 | 1<<3 | 1<<6        // hashsim, equal, testbed
		localRestart = 1 | 3<<3 | 4<<9        // local, gaussian, uniform, a basestation restart
		hashsimFlood = 4 | 1<<6 | 5<<9        // hashsim, unique, testbed, the fault campaign
		bogus        = 5 | 5<<3 | 3<<6 | 6<<9 // a misspelt name in every list
		dynTrace     = 1<<3 | 1<<1            // a churn/drift script, traced
		samplerProf  = 1<<4 | 1<<2 | 1<<0     // ramp sampler, profiled, frozen index
	)
	// seed, names, flags, n, regions, retries,
	// dur, warm, sample, query, deadline, reindex, window (ms),
	// loss, nodePct, width, agg, budget, churn, drift (%), plan, ops, lo, hi
	f.Add(int64(1), uint16(scoopUniform), uint8(0), int8(16), int8(0), int8(0),
		int32(120_000), int32(30_000), int32(15_000), int32(5_000), int32(0), int32(0), int32(0),
		int8(0), int8(-100), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), int16(0), int16(0))
	// 90 000 query ticks of six attempts each: more wire IDs than 16 bits hold.
	f.Add(int64(2), uint16(scoopUniform), uint8(0), int8(16), int8(0), int8(5),
		int32(120_000), int32(30_000), int32(15_000), int32(1), int32(1), int32(0), int32(0),
		int8(0), int8(-100), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), int16(0), int16(0))
	f.Add(int64(3), uint16(campaign), uint8(dynTrace), int8(20), int8(2), int8(2),
		int32(120_000), int32(30_000), int32(10_000), int32(4_000), int32(3_000), int32(0), int32(10_000),
		int8(20), int8(-1), int8(40), int8(50), int8(25), int8(25), int8(30), uint8(0), uint8(0), int16(0), int16(0))
	f.Add(int64(4), uint16(hashsimEqual), uint8(samplerProf), int8(12), int8(0), int8(0),
		int32(120_000), int32(20_000), int32(7_000), int32(3_000), int32(0), int32(20_000), int32(0),
		int8(0), int8(-1), int8(40), int8(100), int8(25), int8(0), int8(0), uint8(2), uint8(0b0111110), int16(0), int16(60))
	// A restarted base once re-recorded its preloaded index generation.
	f.Add(int64(5), uint16(localRestart), uint8(0), int8(10), int8(0), int8(0),
		int32(90_000), int32(20_000), int32(9_000), int32(7_000), int32(0), int32(0), int32(0),
		int8(0), int8(30), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), int16(0), int16(0))
	// A recovered forced flood once re-asked only the owners, so the
	// first issue's stragglers folded in past its target count.
	f.Add(int64(3), uint16(hashsimFlood), uint8(dynTrace), int8(20), int8(1), int8(92),
		int32(120_000), int32(30_000), int32(10_000), int32(4_079), int32(2_937), int32(0), int32(10_000),
		int8(20), int8(-1), int8(2), int8(51), int8(101), int8(-48), int8(30), uint8(4), uint8(0b11011), int16(-96), int16(0))
	f.Add(int64(6), uint16(bogus), uint8(0), int8(16), int8(0), int8(0),
		int32(120_000), int32(30_000), int32(15_000), int32(5_000), int32(0), int32(0), int32(0),
		int8(0), int8(-100), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(0), uint8(0), int16(0), int16(0))

	pick := func(names []string, i uint16) string { return names[int(i&7)%len(names)] }
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, seed int64, names uint16, flags uint8, n, regions, retries int8,
		dur, warm, sample, qint, deadline, reindex, window int32,
		loss, nodePct, width, agg, budget, churn, drift int8, plan, ops uint8, lo, hi int16) {
		ms := func(v int32) netsim.Time { return netsim.Time(v) % (2*netsim.Minute + 1) }
		pct := func(v int8) float64 { return float64(v) / 100 }
		cfg := Config{
			// "hash", the paper's analytical HASH, is a derived column
			// (DeriveHash), not a policy: Validate must reject it.
			Policy:          policy.Name(pick([]string{"scoop", "local", "base", "hash", "hashsim", "scop"}, names)),
			Source:          pick(append(workload.SourceNames(), "bogus"), names>>3),
			Topology:        pick([]string{"uniform", "testbed", "grid", "torus"}, names>>6),
			Faults:          pick(append(append([]string{""}, dynamics.FaultScenarios()...), "storm"), names>>9),
			N:               int(n) % 65,
			Duration:        ms(dur),
			Warmup:          ms(warm),
			SampleInterval:  ms(sample),
			QueryInterval:   ms(qint),
			NodePct:         pct(nodePct),
			QueryWidth:      pct(width),
			AggRatio:        pct(agg),
			AggErrBudget:    pct(budget),
			AggForce:        query.Plan(plan % 6),
			LinkLoss:        pct(loss),
			QueryDeadline:   ms(deadline),
			QueryRetryMax:   int(retries),
			ReindexInterval: ms(reindex),
			DisableReindex:  flags&1 != 0,
			WindowInterval:  ms(window),
			Regions:         int(regions) % 5,
			Trials:          1,
			Seed:            seed,
			Trace:           flags&2 != 0,
			Profile:         flags&4 != 0,
		}
		for op := range 8 {
			if ops&(1<<op) != 0 {
				cfg.AggOps = append(cfg.AggOps, query.Op(op))
			}
		}
		if flags&8 != 0 {
			s := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, pct(churn), pct(drift), seed)
			cfg.Dynamics = &s
		}
		if flags&16 != 0 {
			cfg.Sampler = ramp{int(lo), int(hi)}
		}
		if cfg.Trace {
			cfg.TraceSinks = func(int) []trace.Sink { return []trace.Sink{discard{}} }
		}
		if cfg.Validate() != nil || fuzzing && overBudget(cfg) {
			return
		}
		tr, err := NewTrial(cfg, 0, nil)
		if err != nil {
			t.Fatalf("Validate accepted %+v, NewTrial failed: %v", cfg, err)
		}
		tr.Run(cfg.Duration)
		if _, err := tr.Finish(); err != nil {
			t.Fatalf("Validate accepted %+v, Finish failed: %v", cfg, err)
		}
	})
}

// overBudget reports whether cfg is more work than a fuzz input may
// be: Go's fuzzer fails any input that runs past 10 s, so while fuzzing
// FuzzValidate stops short of more than 500 000 samples (0.85 s at
// N = 64, uninstrumented, 2 cores) or of query IDs past 12 500 or past
// 200 000 ID-nodes. Their cost grows faster than linearly: 60 000 IDs
// at N = 16 take 5.4 s, 12 500 take 0.23 s. The seeds run whole under
// plain go test.
func overBudget(cfg Config) bool {
	active := int64(cfg.Duration - cfg.Warmup)
	var ids int64
	if cfg.QueryInterval > 0 {
		ids = active / int64(cfg.QueryInterval)
		if cfg.QueryDeadline > 0 {
			ids *= 1 + int64(cfg.QueryRetryMax)
		}
	}
	samples := int64(cfg.N-1) * active / int64(cfg.SampleInterval)
	return samples > 500_000 || ids > 12_500 || ids*int64(cfg.N) > 200_000
}
