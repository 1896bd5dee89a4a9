package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"scoop/internal/core"
	"scoop/internal/dynamics"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/trace"
)

// This file is the cross-engine differential harness for the parallel
// region-partitioned event loop (DESIGN.md §18). The serial simulator
// (Regions ≤ 1) is the specification; the conservatively synchronised
// K-region engine is an implementation that must be *indistinguishable*
// from it. Every scenario class runs at K ∈ {1,2,4,8} under
// GOMAXPROCS ∈ {1,8}, and the harness asserts that three independent
// artifacts are identical:
//
//   - every exported deterministic counter of core.RunStats
//     (field-by-field via reflection, so a new counter is compared the
//     day it is added — ReindexWallNanos alone is skipped, as the one
//     wall-clock field);
//   - the per-class transmission breakdown and root-load figures;
//   - the flight-recorder JSONL stream, byte for byte.
//
// Invariant checking stays on, so conservation violations fail the run
// itself, not just the comparison.

// diffArtifacts is everything one run exposes that the differential
// harness compares.
type diffArtifacts struct {
	stats     map[string]int64
	breakdown metrics.Breakdown
	rootSent  float64
	rootRecv  float64
	agg       AggEval
	trace     []byte
}

// statsFields flattens the exported deterministic int64 counters of a
// RunStats via reflection. ReindexWallNanos is excluded: it is the one
// machine-dependent field (wall-clock observability, never part of a
// committed artifact).
func statsFields(s *core.RunStats) map[string]int64 {
	out := map[string]int64{}
	v := reflect.ValueOf(s).Elem()
	tp := v.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 || f.Name == "ReindexWallNanos" {
			continue
		}
		out[f.Name] = v.Field(i).Int()
	}
	return out
}

// runDifferential executes one cell with the flight recorder streaming
// trial 0 to a buffer and returns the comparison artifacts.
func runDifferential(t *testing.T, cfg Config) diffArtifacts {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = true
	cfg.TraceSinks = func(trial int) []trace.Sink {
		if trial != 0 {
			return nil
		}
		return []trace.Sink{trace.NewJSONL(&buf)}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return diffArtifacts{
		stats:     statsFields(&res.Stats),
		breakdown: res.Breakdown,
		rootSent:  res.RootSent,
		rootRecv:  res.RootRecv,
		agg:       res.Agg,
		trace:     buf.Bytes(),
	}
}

// compareArtifacts reports every way got diverges from want.
func compareArtifacts(t *testing.T, label string, want, got diffArtifacts) {
	t.Helper()
	names := make([]string, 0, len(want.stats))
	for name := range want.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want.stats[name] != got.stats[name] {
			t.Errorf("%s: RunStats.%s = %d, serial reference %d", label, name, got.stats[name], want.stats[name])
		}
	}
	if want.breakdown != got.breakdown {
		t.Errorf("%s: breakdown %+v, serial reference %+v", label, got.breakdown, want.breakdown)
	}
	if want.rootSent != got.rootSent || want.rootRecv != got.rootRecv {
		t.Errorf("%s: root load (%v,%v), serial reference (%v,%v)",
			label, got.rootSent, got.rootRecv, want.rootSent, want.rootRecv)
	}
	if want.agg != got.agg {
		t.Errorf("%s: agg eval %+v, serial reference %+v", label, got.agg, want.agg)
	}
	if !bytes.Equal(want.trace, got.trace) {
		a := bytes.Split(want.trace, []byte("\n"))
		b := bytes.Split(got.trace, []byte("\n"))
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: trace diverges at line %d (%d vs %d lines):\nref: %s\ngot: %s",
					label, i, len(a), len(b), a[i], b[i])
				return
			}
		}
		t.Errorf("%s: trace line counts differ: ref %d, got %d", label, len(a), len(b))
	}
}

// differentialScenarios enumerates one cell per scenario class the
// repo's experiments exercise: churn (node reboot/rejoin), data drift
// with reindexing, a pure aggregate-query mix, a larger scale-tier
// grid, and the full fault campaign with the reliability layer armed.
// Each runs a single trial under the invariant checker.
func differentialScenarios() []struct {
	name string
	cfg  Config
} {
	base := func() Config {
		cfg := Default()
		cfg.N = 20
		cfg.Duration = 6 * netsim.Minute
		cfg.Warmup = 2 * netsim.Minute
		cfg.Trials = 1
		return cfg
	}
	churn := base()
	{
		s := dynamics.Standard(churn.N, churn.Warmup, churn.Duration, 0.25, 0, 7)
		churn.Dynamics = &s
		churn.ReindexInterval = 2 * netsim.Minute
	}
	drift := base()
	{
		s := dynamics.Standard(drift.N, drift.Warmup, drift.Duration, 0, 0.5, 11)
		drift.Dynamics = &s
		drift.ReindexInterval = 2 * netsim.Minute
	}
	agg := base()
	agg.AggRatio = 1
	agg.QueryWidth = 0.4
	agg.AggErrBudget = 0.25
	scale := base()
	scale.N = 100
	scale.Topology = "grid"
	scale.Duration = 5 * netsim.Minute
	scale.Seed = 3
	faults := base()
	faults.Faults = "campaign"
	faults.LinkLoss = 0.3
	faults.QueryDeadline = 12 * netsim.Second
	faults.QueryRetryMax = 3
	faults.AggRatio = 0.5
	faults.QueryWidth = 0.4
	faults.AggErrBudget = 0.25
	return []struct {
		name string
		cfg  Config
	}{
		{"churn", churn},
		{"drift", drift},
		{"agg", agg},
		{"scale", scale},
		{"faults", faults},
	}
}

// TestDifferentialRegions is the tentpole proof: for every scenario
// class, every region count K ∈ {1,2,4,8} under both GOMAXPROCS 1 and
// 8 reproduces the serial engine's artifacts exactly. GOMAXPROCS is
// process-global state, so the matrix runs sequentially.
func TestDifferentialRegions(t *testing.T) {
	kset := []int{1, 2, 4, 8}
	procs := []int{1, 8}
	if testing.Short() {
		kset = []int{1, 4}
		procs = []int{8}
	}
	for _, sc := range differentialScenarios() {
		sc := sc
		if testing.Short() && sc.name == "scale" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			ref := runDifferential(t, sc.cfg)
			if len(ref.trace) == 0 {
				t.Fatal("serial reference produced no trace events")
			}
			for _, p := range procs {
				for _, k := range kset {
					cfg := sc.cfg
					cfg.Regions = k
					prev := runtime.GOMAXPROCS(p)
					got := runDifferential(t, cfg)
					runtime.GOMAXPROCS(prev)
					compareArtifacts(t, fmt.Sprintf("K=%d GOMAXPROCS=%d", k, p), ref, got)
				}
			}
		})
	}
}
