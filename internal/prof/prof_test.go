package prof

import (
	"slices"
	"testing"

	"scoop/internal/histogram"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.LoopBegin()
	p.BeginEvent(PhaseRadio, 3)
	prev := p.Enter(PhaseReindex)
	p.Exit(prev)
	p.EndEvent()
	p.LoopEnd()
	s := p.Snapshot()
	if s.Events != 0 || s.LoopNs != 0 {
		t.Fatalf("nil profiler accumulated state: %+v", s)
	}
}

func TestIdleProfilerIgnoresSpans(t *testing.T) {
	p := New()
	// Enter/Exit outside LoopBegin..LoopEnd (e.g. a test driving
	// core.Base.Remap directly) must not attribute garbage.
	prev := p.Enter(PhaseReindex)
	p.Exit(prev)
	s := p.Snapshot()
	if s.Count[PhaseReindex] != 0 || s.AttributedNs() != 0 {
		t.Fatalf("idle profiler accumulated state: %+v", s)
	}
}

func TestAttributionStructure(t *testing.T) {
	p := New()
	p.LoopBegin()
	p.BeginEvent(PhaseMAC, 5)
	prev := p.Enter(PhaseReindex)
	p.Exit(prev)
	p.EndEvent()
	p.BeginEvent(PhaseRadio, 2)
	p.EndEvent()
	p.LoopEnd()

	s := p.Snapshot()
	if s.Events != 2 {
		t.Fatalf("Events = %d, want 2", s.Events)
	}
	if s.Count[PhaseMAC] != 1 || s.Count[PhaseRadio] != 1 || s.Count[PhaseReindex] != 1 {
		t.Fatalf("counts = %v", s.Count)
	}
	if got, want := s.Depth.Buckets(), []histogram.Log2Bucket{{Lo: 2, Hi: 3, Count: 1}, {Lo: 4, Hi: 7, Count: 1}}; !slices.Equal(got, want) {
		t.Fatalf("depth histogram %v, want %v", got, want)
	}
	if s.LoopNs <= 0 {
		t.Fatalf("LoopNs = %d, want > 0", s.LoopNs)
	}
	// Attribution is continuous: phase walls sum to the loop wall.
	if got := s.AttributedNs(); got != s.LoopNs {
		t.Fatalf("attributed %d ns != loop %d ns", got, s.LoopNs)
	}
	if c := s.Coverage(); c < 0.999 || c > 1.001 {
		t.Fatalf("coverage = %f, want ~1", c)
	}
}

func TestLoopAccumulatesAcrossSections(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.LoopBegin()
		p.BeginEvent(PhaseHarness, 1)
		p.EndEvent()
		p.LoopEnd()
	}
	s := p.Snapshot()
	if s.Events != 3 {
		t.Fatalf("Events = %d, want 3", s.Events)
	}
	if s.AttributedNs() != s.LoopNs {
		t.Fatalf("attributed %d != loop %d", s.AttributedNs(), s.LoopNs)
	}
}

func TestDisabledHotPathZeroAlloc(t *testing.T) {
	var p *Profiler
	allocs := testing.AllocsPerRun(1000, func() {
		p.BeginEvent(PhaseRadio, 4)
		prev := p.Enter(PhaseTraceEmit)
		p.Exit(prev)
		p.EndEvent()
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestEnabledHotPathZeroAlloc(t *testing.T) {
	p := New()
	p.LoopBegin()
	allocs := testing.AllocsPerRun(1000, func() {
		p.BeginEvent(PhaseRadio, 4)
		prev := p.Enter(PhaseTraceEmit)
		p.Exit(prev)
		p.EndEvent()
	})
	p.LoopEnd()
	if allocs != 0 {
		t.Fatalf("enabled hot path allocates %.1f/op, want 0", allocs)
	}
}
