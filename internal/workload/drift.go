package workload

import (
	"math"

	"scoop/internal/netsim"
)

// Drift wraps a Source with a controllable offset — the knob dynamics
// scripts turn to walk a data distribution across the value domain
// mid-run (a GAUSSIAN mean migrating, a light level rising). The
// offset is a signed fraction of the domain width; shifted samples
// clamp at the domain edges, so a large shift piles mass up at one
// end, exactly the regime a frozen index handles worst.
type Drift struct {
	Source
	lo, hi int
	offset int
}

// NewDrift wraps src with a zero initial offset.
func NewDrift(src Source) *Drift {
	lo, hi := src.Domain()
	return &Drift{Source: src, lo: lo, hi: hi}
}

// SetShift sets the offset to frac of the domain width (implements
// dynamics.DataShifter).
func (d *Drift) SetShift(frac float64) {
	d.offset = int(math.Round(frac * float64(d.hi-d.lo)))
}

// Next implements Source: the wrapped sample plus the current offset,
// clamped to the domain.
func (d *Drift) Next(id netsim.NodeID, t netsim.Time) int {
	return clamp(d.Source.Next(id, t)+d.offset, d.lo, d.hi)
}
