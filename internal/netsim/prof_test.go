package netsim

import (
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/prof"
)

// A profiled run must execute the exact same event sequence as an
// unprofiled one: the profiler is observation-only.
func TestProfiledRunIdenticalOrder(t *testing.T) {
	run := func(p *prof.Profiler) []int {
		s := NewSimulator(7)
		if p != nil {
			s.SetProfiler(p)
		}
		var got []int
		s.At(30, func() { got = append(got, 3) })
		s.At(10, func() {
			got = append(got, 1)
			s.After(5, func() { got = append(got, 2) })
		})
		for i := 0; i < 4; i++ {
			i := i
			s.At(40, func() { got = append(got, 10+i) })
		}
		s.Run(100)
		return got
	}
	plain := run(nil)
	prof := run(prof.New())
	if len(plain) != len(prof) {
		t.Fatalf("profiled run fired %d events, unprofiled %d", len(prof), len(plain))
	}
	for i := range plain {
		if plain[i] != prof[i] {
			t.Fatalf("event order diverged at %d: profiled %v, plain %v", i, prof, plain)
		}
	}
}

// The simulator attributes every popped event to a phase and records
// the heap depth at each pop.
func TestProfilerAttributionAndDwell(t *testing.T) {
	p := prof.New()
	s := NewSimulator(1)
	s.SetProfiler(p)
	s.At(10, func() {})
	s.At(10, func() {
		s.After(25, func() {})
	})
	s.Run(100)

	snap := p.Snapshot()
	if snap.Events != 3 {
		t.Fatalf("profiled %d events, want 3", snap.Events)
	}
	// Plain At callbacks attribute to the harness phase.
	if got := snap.Count[prof.PhaseHarness]; got != 3 {
		t.Fatalf("harness phase count = %d, want 3", got)
	}
	if snap.Depth.Total() != 3 {
		t.Fatalf("depth samples = %d, want 3", snap.Depth.Total())
	}
	// Both events are queued when the first pops; the nested one pops
	// alone.
	if max := snap.Depth.Max(); max != 2 {
		t.Fatalf("max heap depth = %d, want 2", max)
	}
	if snap.LoopNs < snap.AttributedNs() {
		t.Fatalf("attributed %d ns exceeds loop %d ns", snap.AttributedNs(), snap.LoopNs)
	}
	if cov := snap.Coverage(); cov < 0.99 || cov > 1.01 {
		t.Fatalf("coverage = %v, want ≈1", cov)
	}
}

// The depth a pop records counts both tiers of the queue, the wheel's
// near events and the heap's far ones, as Pending does: three are
// queued when the first pops, one of them in the wheel.
func TestProfilerDepthCountsBothTiers(t *testing.T) {
	p := prof.New()
	s := NewSimulator(1)
	s.SetProfiler(p)
	s.At(10, func() {})
	s.At(10*Second, func() {})
	s.At(20*Second, func() {})
	if s.near != 1 || len(s.events) != 2 || s.Pending() != 3 {
		t.Fatalf("wheel holds %d, heap %d, Pending = %d; want 1, 2, 3", s.near, len(s.events), s.Pending())
	}
	s.Run(Minute)
	snap := p.Snapshot()
	if max := snap.Depth.Max(); max != 3 {
		t.Fatalf("max recorded depth = %d, want 3", max)
	}
}

// Network-scheduled work lands in the radio and MAC phases.
func TestProfilerNetworkPhases(t *testing.T) {
	p := prof.New()
	net, _, _ := newTestNet(pairTopology(1, 1, 0, 0), 1)
	net.Sim.SetProfiler(p)
	net.api[1].SetTimer(1, 5)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(Second)

	snap := p.Snapshot()
	if snap.Count[prof.PhaseRadio] == 0 {
		t.Fatalf("no radio-phase events: counts %v", snap.Count)
	}
	if snap.Count[prof.PhaseMAC] == 0 {
		t.Fatalf("no mac-timer-phase events: counts %v", snap.Count)
	}
}
