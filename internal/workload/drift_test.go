package workload

import (
	"testing"

	"scoop/internal/netsim"
)

func TestDriftOffsetsAndClamps(t *testing.T) {
	d := NewDrift(NewUnique(32)) // domain [0,31]
	if got := d.Next(5, 0); got != 5 {
		t.Fatalf("zero-shift sample = %d, want 5", got)
	}
	d.SetShift(0.30)
	if d.offset != 9 {
		t.Fatalf("offset = %d, want 9 (30%% of 31)", d.offset)
	}
	if got := d.Next(5, 0); got != 14 {
		t.Fatalf("shifted sample = %d, want 14", got)
	}
	if got := d.Next(30, 0); got != 31 {
		t.Fatalf("clamped sample = %d, want 31", got)
	}
	d.SetShift(-0.30)
	if got := d.Next(5, 0); got != 0 {
		t.Fatalf("down-clamped sample = %d, want 0", got)
	}
	// Domain and name pass through.
	if lo, hi := d.Domain(); lo != 0 || hi != 31 {
		t.Fatalf("domain = [%d,%d]", lo, hi)
	}
	if d.Name() != "unique" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestRangeGenHotCenterMigrates(t *testing.T) {
	mean := func(g *RangeGen, n int) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			q := g.Next(netsim.Time(i) * netsim.Second)
			sum += float64(q.ValueLo+q.ValueHi) / 2
		}
		return sum / float64(n)
	}
	g := NewRangeGen(0, 100, 7)
	uniform := mean(g, 400)
	if uniform < 35 || uniform > 65 {
		t.Fatalf("uniform mean center = %.1f, want ~50", uniform)
	}
	g.SetHotCenter(0.2)
	low := mean(g, 400)
	if low > 30 {
		t.Fatalf("hot-range at 0.2 yields mean center %.1f, want ~20", low)
	}
	g.SetHotCenter(0.85)
	high := mean(g, 400)
	if high < 70 {
		t.Fatalf("hot-range at 0.85 yields mean center %.1f, want ~85", high)
	}
	// Queries stay inside the domain.
	g.SetHotCenter(1.0)
	for i := 0; i < 200; i++ {
		q := g.Next(0)
		if q.ValueLo < 0 || q.ValueHi > 100 || q.ValueLo > q.ValueHi {
			t.Fatalf("query [%d,%d] outside domain", q.ValueLo, q.ValueHi)
		}
	}
	// Negative center restores uniform placement.
	g.SetHotCenter(-1)
	if back := mean(g, 400); back < 35 || back > 65 {
		t.Fatalf("restored uniform mean center = %.1f", back)
	}
}
