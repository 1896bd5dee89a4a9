package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoop/internal/core"
	"scoop/internal/exp"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// The benchmark re-execs its own binary for every job. Under go test that
// binary is the test binary, so a process marked as a child acts as the
// benchmark instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end at 1/20 virtual length: all
// child jobs, all checks, the traced run and the result file.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	b := bench{seed: 1, frac: smokeFrac, checkFrac: smokeFrac, reps: 1, smoke: true, outDir: dir}
	res, err := b.fullRun()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		for _, w := range res.Workloads {
			for _, n := range w.Notes {
				t.Errorf("%s: %s", w.Name, n)
			}
		}
		t.Fatalf("failed %d of %d ops", res.Failed, res.Attempted)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("got %d workloads, want %d", len(res.Workloads), len(workloads))
	}
	// Metrics that must be live on a workload, beyond the end-to-end ones.
	live := map[string][]string{
		wFig3:  {"sweep.cells_per_s", "sweep.cell_ms_p50", "model.base_over_scoop", "netsim.engine_share", "bench.driver_matches_exp"},
		wScale: {"netsim.engine_share", "netsim.events_per_vs", "routing.snoop_ns_per_vs", "netsim.slice_ms_p95", "core.node_init_us", "netsim.k2_speedup", "bench.driver_matches_exp"},
		wQuery: {"trickle.query_ns_per_vs", "query.issue_query_us_p50", "query.issue_agg_us_p50", "bench.driver_matches_exp"},
		wTrace: {"trace.overhead_ratio", "trace.bytes_per_vs", "trace.events_per_vs", "bench.driver_matches_exp"},
	}
	everywhere := []string{"netsim.flood_n1000_ms_per_vmin", "netsim.topology_n1000_ms", "index.rebuild_n1000_ms",
		"core.reply_dup_ns", "trace.emit_ring_ns", "prof.coverage", "prof.overhead_ratio", "netsim.tx_per_vs"}
	for _, w := range res.Workloads {
		for _, m := range endToEnd {
			if s := w.EndToEnd[m.Name]; s.N != 1 || !(s.Median > 0) {
				t.Errorf("%s: %s = %+v, want one positive sample", w.Name, m.Name, s)
			}
		}
		for _, m := range perLayer {
			if _, ok := w.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		for _, name := range append(live[w.Name], everywhere...) {
			if !(w.PerLayer[name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, w.PerLayer[name])
			}
		}
		if w.Digest == "" {
			t.Errorf("%s: empty stats_digest", w.Name)
		}
	}
	for _, w := range []string{wFig3, wScale, wQuery, wTrace} {
		if _, err := os.Stat(filepath.Join(dir, "spans-"+w+".jsonl")); err != nil {
			t.Errorf("span file: %v", err)
		}
	}

	// The result file round-trips, and compares as within against itself.
	path := filepath.Join(dir, "result-1.json")
	if err := res.write(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	anyOutside, err := compareFiles(&sb, path, path)
	if err != nil || anyOutside {
		t.Fatalf("self-compare: outside=%v err=%v\n%s", anyOutside, err, sb.String())
	}
	for _, want := range []string{"sim_rate", "stats_digest", within} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, sb.String())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in the code.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %+v", i, doc.Workloads[i], w)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, m.Name, g.Bound, m.Bound)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, m.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
}

func TestMedianQuartilesPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v, %v", q1, q3)
	}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 = %v", got)
	}
	if got := percentile(ten, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(ten, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{19: 0, 20: 50, 64: 75, 128: 90, 360: 95, 1000: 99, 10000: 99.9} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestDigest(t *testing.T) {
	sum := func(tr exp.TrialResult) string {
		var d digester
		d.addTrial(tr)
		return d.sum()
	}
	base := exp.TrialResult{
		Stats:     core.RunStats{Produced: 10, StoredUnique: 9, ReindexWallNanos: 5},
		Breakdown: metrics.Breakdown{Data: 3, Beacon: 1},
	}
	wall := base
	wall.Stats.ReindexWallNanos = 999
	if sum(base) != sum(wall) {
		t.Error("wall-clock field changed the digest")
	}
	counter := base
	counter.Stats.StoredUnique++
	if sum(base) == sum(counter) {
		t.Error("a counter change did not change the digest")
	}
	msgs := base
	msgs.Breakdown.Data++
	if sum(base) == sum(msgs) {
		t.Error("a message-count change did not change the digest")
	}
	var two digester
	two.addTrial(base)
	two.addTrial(base)
	if two.sum() == sum(base) {
		t.Error("a second trial did not change the digest")
	}
}

// TestShimAccounting runs a small network through the bench's own driver
// and checks the self-time bookkeeping: slices add up to the loop, every
// callback's time is in exactly one key, the engine's self time is what
// is left, spans nest in their slice, and the shim changes nothing.
func TestShimAccounting(t *testing.T) {
	cfg := exp.Default()
	cfg.N = 20
	cfg.Trials = 1
	cfg.Duration, cfg.Warmup = 8*netsim.Minute, 2*netsim.Minute
	cfg.QueryInterval = 5 * netsim.Second
	cfg.AggRatio, cfg.AggErrBudget = 0.5, 0.05
	cfg.QueryDeadline, cfg.QueryRetryMax = 8*netsim.Second, 2
	cfg.Faults = "campaign"
	cfg.Seed = 7

	on, err := runDriver(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runDriver(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	u := runUnit(spec{cfgs: []exp.Config{cfg}}, runOpts{})
	if on.Digest != off.Digest || off.Digest != u.Digest {
		t.Errorf("digests: shim on %s, off %s, exp.Run %s", on.Digest, off.Digest, u.Digest)
	}

	p := on.Probe
	if len(p.sliceMS) != slicesPerRun {
		t.Errorf("%d slices, want %d", len(p.sliceMS), slicesPerRun)
	}
	var keys acc
	for _, a := range p.timer {
		keys = keys.plus(a)
	}
	for c := 0; c < numClasses; c++ {
		keys = keys.plus(p.nodeRecv[c]).plus(p.baseRecv[c])
	}
	keys = keys.plus(p.snoop).plus(p.init)
	if keys.sum != p.callbacks {
		t.Errorf("keys sum to %d ns, callbacks are %d ns", keys.sum, p.callbacks)
	}
	if keys.hist.Total() != keys.n {
		t.Errorf("histograms hold %d samples, keys %d calls", keys.hist.Total(), keys.n)
	}
	if p.init.n < int64(cfg.N) {
		t.Errorf("%d Init calls for %d nodes", p.init.n, cfg.N)
	}
	if p.timer[timerRemap].n == 0 || len(p.issueQ) == 0 || len(p.issueAgg) == 0 {
		t.Errorf("remaps %d, tuple queries %d, aggregates %d: want all > 0",
			p.timer[timerRemap].n, len(p.issueQ), len(p.issueAgg))
	}
	var loop, inner int64
	for i, s := range p.spans {
		switch {
		case s.Name == "netsim.slice":
			if s.Parent != -1 {
				t.Fatalf("slice span %d has parent %d", i, s.Parent)
			}
			loop += s.EndNs - s.StartNs
		case s.Parent < 0 || s.Parent >= len(p.spans) || p.spans[s.Parent].Name != "netsim.slice":
			t.Fatalf("span %d (%s) has parent %d, not a slice", i, s.Name, s.Parent)
		default:
			par := p.spans[s.Parent]
			if s.StartNs < par.StartNs || s.EndNs > par.EndNs {
				t.Fatalf("span %d (%s) [%d,%d] outside its slice [%d,%d]", i, s.Name, s.StartNs, s.EndNs, par.StartNs, par.EndNs)
			}
			inner += s.EndNs - s.StartNs
		}
	}
	if loop != p.loopNs {
		t.Errorf("slice spans cover %d ns, loop is %d ns", loop, p.loopNs)
	}
	inLoop := p.inLoop + p.harness
	if p.inLoop <= 0 || p.inLoop > p.callbacks || inLoop >= p.loopNs || inner > inLoop {
		t.Errorf("in-loop layer time %d ns (callbacks %d ns, spans %d ns) against loop %d ns", inLoop, p.callbacks, inner, p.loopNs)
	}
	if e := p.engineNs(); e != p.loopNs-inLoop {
		t.Errorf("engine self time %d ns, want loop - layers = %d ns", e, p.loopNs-inLoop)
	}

	l := newLayers()
	l.fromProbe(p, on.VirtualS)
	if s := l["netsim.engine_share"] + l["core.callback_share"]; s <= 0 || s > 1.0001 {
		t.Errorf("engine_share + callback_share = %v", s)
	}
	if l["index.remaps"] != float64(p.timer[timerRemap].n) || math.IsNaN(l["query.issue_agg_us_p50"]) {
		t.Errorf("layers: remaps %v, issue_agg p50 %v", l["index.remaps"], l["query.issue_agg_us_p50"])
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "sim_rate", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "model_data_stored", Better: "higher", Bound: 0.10, Exact: true}
	tight := func(m float64) summary { return summarize("", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize("", []float64{m * 0.8, m, m * 1.2}) }
	for _, c := range []struct {
		name     string
		m        metricDef
		a, b     summary
		sameSeed bool
		want     string
	}{
		{"small drop", rate, tight(100), tight(95), true, within},
		{"big drop", rate, tight(100), tight(85), true, outside},
		{"gain", rate, tight(100), tight(150), true, within},
		{"noisy", rate, wide(100), wide(95), true, unresolved},
		{"noisy but all better", rate, wide(100), wide(200), true, within},
		{"exact equal", exact, tight(0.5), tight(0.5), true, within},
		{"exact differs", exact, tight(0.5), tight(0.5001), true, outside},
		{"other seed falls back to the bound", exact, tight(0.5), tight(0.49), false, within},
	} {
		if got := judge(c.m, c.a, c.b, c.sameSeed); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	if got := judge(lower, tight(1), tight(1.3), true); got != outside {
		t.Errorf("lower-is-better rise: %s", got)
	}
	if got := judge(lower, tight(1), tight(0.5), true); got != within {
		t.Errorf("lower-is-better fall: %s", got)
	}
}
