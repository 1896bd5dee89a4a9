package exp

import (
	"testing"
	"time"

	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// TestScaleTier1000 is the scale-tier acceptance run: a full
// 1000-node, 40-virtual-minute SCOOP experiment on a multi-hop grid,
// executed under the invariant checker (TestMain force-enables it).
// The wall-clock budget is asserted loosely — the CI target is ≤ 60 s
// and the hot-path overhaul runs it in well under 15 s on 2024
// hardware, so a 5-minute failure means an order-of-magnitude
// regression, not noise.
func TestScaleTier1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node full-length run")
	}
	cfg := Default()
	cfg.Policy = policy.Scoop
	cfg.N = 1000
	cfg.Topology = "grid"
	cfg.Duration = 40 * netsim.Minute
	cfg.Warmup = 10 * netsim.Minute
	cfg.Trials = 1
	cfg.Seed = 1
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	t.Logf("N=1000 40min: wall=%.1fs (%.0f sim-s/wall-s), msgs=%.0f, delivery=%.1f%%",
		wall.Seconds(), 2400/wall.Seconds(), res.Breakdown.Total(),
		100*res.Stats.DataSuccessRate())
	if wall > 5*time.Minute {
		t.Fatalf("1000-node run took %.0fs — order-of-magnitude hot-path regression", wall.Seconds())
	}
	if res.Stats.Produced == 0 || res.Breakdown.Total() == 0 {
		t.Fatal("scale run produced no traffic")
	}
	// The funnel toward the basestation saturates at this scale;
	// delivery is expected to degrade, but the network must still
	// store a non-trivial share end to end.
	if got := res.Stats.DataSuccessRate(); got < 0.05 {
		t.Fatalf("delivery collapsed to %.1f%%", 100*got)
	}
}

// TestScaleTier250 keeps a mid-tier point in the -short suite so the
// lifted node bound is exercised on every test run, not only in CI's
// full pass.
func TestScaleTier250(t *testing.T) {
	cfg := Default()
	cfg.Policy = policy.Scoop
	cfg.N = 250
	cfg.Topology = "grid"
	cfg.Duration = 12 * netsim.Minute
	cfg.Warmup = 4 * netsim.Minute
	cfg.Trials = 1
	cfg.Seed = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StoredUnique == 0 {
		t.Fatal("no readings stored at 250 nodes")
	}
}
