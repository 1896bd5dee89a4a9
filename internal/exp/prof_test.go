package exp

import (
	"reflect"
	"testing"

	"scoop/internal/policy"
	"scoop/internal/prof"
)

// profQuick returns a small single-trial config for profiler tests.
func profQuick() Config {
	cfg := Default()
	cfg.Policy = policy.Scoop
	cfg.Source = "real"
	cfg.N = 20
	shorten(&cfg)
	return cfg
}

// Profiling is observation-only: every simulation outcome must be
// identical with it on or off.
func TestProfileDoesNotChangeOutcome(t *testing.T) {
	off := profQuick()
	on := profQuick()
	on.Profile = true

	ro, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ro.Breakdown, rp.Breakdown) {
		t.Fatalf("breakdown diverged:\noff %+v\non  %+v", ro.Breakdown, rp.Breakdown)
	}
	// ReindexWallNanos is a wall-clock measurement and differs across
	// any two runs; everything else must match exactly.
	so, sp := ro.Stats, rp.Stats
	so.ReindexWallNanos, sp.ReindexWallNanos = 0, 0
	if !reflect.DeepEqual(so, sp) {
		t.Fatalf("run stats diverged:\noff %+v\non  %+v", so, sp)
	}
	if ro.RootSent != rp.RootSent || ro.RootRecv != rp.RootRecv {
		t.Fatalf("root traffic diverged: off %v/%v, on %v/%v",
			ro.RootSent, ro.RootRecv, rp.RootSent, rp.RootRecv)
	}

	if ro.PerTrial[0].Prof != nil {
		t.Fatal("unprofiled trial carries a snapshot")
	}
	snap := rp.PerTrial[0].Prof
	if snap == nil {
		t.Fatal("profiled trial missing its snapshot")
	}
	if snap.Events == 0 || snap.LoopNs <= 0 {
		t.Fatalf("empty snapshot: events=%d loop=%dns", snap.Events, snap.LoopNs)
	}
	// The attribution model yields ~1.0 structurally; anything below
	// this floor means an instrumentation hole.
	const minCoverage = 0.95
	if cov := snap.Coverage(); cov < minCoverage {
		t.Fatalf("coverage %.3f below %.2f", cov, minCoverage)
	}
	// A real SCOOP run exercises radio delivery, MAC steps, node and
	// base receive paths.
	for _, ph := range []prof.Phase{prof.PhaseRadio, prof.PhaseMAC, prof.PhaseNodeRecv, prof.PhaseBaseRecv} {
		if snap.Count[ph] == 0 {
			t.Fatalf("phase %d never attributed: counts %v", ph, snap.Count)
		}
	}
}
