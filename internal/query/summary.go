package query

import (
	"math"
	"slices"

	"scoop/internal/histogram"
	"scoop/internal/netsim"
)

// SummarySnapshot is the estimator's view of one retained summary
// message: who reported, when, and what their recent readings looked
// like. internal/core adapts its SummaryMsg history to this.
type SummarySnapshot struct {
	Node          uint16
	SentAt        netsim.Time
	Min, Max, Sum int
	Rate          float64 // readings per second
	Hist          histogram.Histogram
}

// Estimate is a summary-served answer with an error bound. ErrBound is
// a relative bound: the true answer is believed to lie within
// Value*(1±ErrBound) (for near-zero answers the bound is absolute-ish;
// callers compare it against the query's ErrBudget).
type Estimate struct {
	Valid    bool
	Value    float64
	ErrBound float64
}

// rangeMass returns the histogram probability mass inside [lo,hi] as
// (estimated, lower bound, upper bound): bins fully inside count for
// all three, partially overlapped bins contribute their overlap
// fraction to the estimate, nothing to the lower bound and everything
// to the upper bound — the bin-boundary uncertainty the error bound
// reports.
func rangeMass(h histogram.Histogram, lo, hi int) (est, lob, hib float64) {
	if h.Empty() {
		return 0, 0, 0
	}
	total := h.Total()
	if total == 0 {
		return 0, 0, 0
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		blo := h.Min + i*w
		bhi := blo + w - 1
		if i == len(h.Counts)-1 && h.Max > bhi {
			bhi = h.Max // last bin absorbs the integer-rounding spill
		}
		if bhi < lo || blo > hi {
			continue
		}
		frac := float64(c) / float64(total)
		olo, ohi := blo, bhi
		if lo > olo {
			olo = lo
		}
		if hi < ohi {
			ohi = hi
		}
		overlap := float64(ohi-olo+1) / float64(bhi-blo+1)
		est += frac * overlap
		hib += frac
		if overlap >= 1 {
			lob += frac
		}
	}
	return est, lob, hib
}

// rangeMean returns the expected reading value inside [lo,hi] under
// the histogram's uniform-within-bin assumption, and the half bin
// width as its absolute uncertainty.
func rangeMean(h histogram.Histogram, lo, hi int) (mean, halfW float64, ok bool) {
	if h.Empty() || h.Total() == 0 {
		return 0, 0, false
	}
	w := h.BinWidth()
	var mass, weighted float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		blo := h.Min + i*w
		bhi := blo + w - 1
		if bhi < lo || blo > hi {
			continue
		}
		olo, ohi := blo, bhi
		if lo > olo {
			olo = lo
		}
		if hi < ohi {
			ohi = hi
		}
		m := float64(c) * float64(ohi-olo+1) / float64(bhi-blo+1)
		mass += m
		weighted += m * (float64(olo) + float64(ohi)) / 2
	}
	if mass == 0 {
		return 0, 0, false
	}
	return weighted / mass, float64(w) / 2, true
}

// inWindow reports whether s was sent inside q's time window.
func (q AggQuery) inWindow(s *SummarySnapshot) bool {
	return s.SentAt >= q.TimeLo && s.SentAt <= q.TimeHi
}

// relErr converts an absolute uncertainty into the relative bound the
// planner compares against the budget; near-zero estimates use an
// absolute floor of 1 so the bound stays finite.
func relErr(absErr, est float64) float64 {
	den := math.Abs(est)
	if den < 1 {
		den = 1
	}
	return absErr / den
}

// extrapolationFloor is the irreducible relative uncertainty of
// rate-extrapolated counting estimates: histograms cover only the
// recent-readings buffer, so scaling their mass by rate×window can
// never be exact even when no bin is partially covered. A zero
// ErrBudget therefore always forces an exact network plan.
const extrapolationFloor = 0.10

func withFloor(bound float64) float64 {
	if bound < extrapolationFloor {
		return extrapolationFloor
	}
	return bound
}

// EstimateFromSummaries answers q approximately from retained summary
// snapshots, at zero radio cost. latest holds at most one snapshot a
// node, each node's freshest inside the query window, in ascending
// node order; a snapshot outside the window is skipped. The order is
// load-bearing: estimates sum floating-point mass across nodes, and
// picking them from a map made the final bits of aggregate answers
// depend on Go's randomized map order — the one nondeterminism ever
// observed in committed sweep artifacts (DESIGN.md §2, §9). The
// estimate is invalid when no summary falls inside the query window or
// the operator cannot be served (OpSelect). Counting operators scale
// histogram mass by each node's reported production rate over the
// window, so the estimate tracks the true population even though each
// histogram only covers the recent-readings buffer.
func EstimateFromSummaries(q AggQuery, latest []SummarySnapshot) Estimate {
	if !q.Op.Aggregate() || !slices.ContainsFunc(latest, func(s SummarySnapshot) bool { return q.inWindow(&s) }) {
		return Estimate{}
	}
	windowSec := float64(q.TimeHi-q.TimeLo) / float64(netsim.Second)
	if windowSec <= 0 {
		return Estimate{}
	}

	switch q.Op {
	case OpCount, OpSum, OpAvg:
		var cnt, cntLo, cntHi, sum, sumAbsErr float64
		for _, s := range latest {
			if !q.inWindow(&s) {
				continue
			}
			est, lob, hib := rangeMass(s.Hist, q.ValueLo, q.ValueHi)
			if hib == 0 {
				continue
			}
			readings := s.Rate * windowSec
			cnt += est * readings
			cntLo += lob * readings
			cntHi += hib * readings
			if mean, halfW, ok := rangeMean(s.Hist, q.ValueLo, q.ValueHi); ok {
				sum += est * readings * mean
				sumAbsErr += (hib - lob) * readings * math.Abs(mean)
				sumAbsErr += est * readings * halfW
			}
		}
		if cntHi == 0 {
			// Summaries agree the range is empty: exact zero.
			if q.Op == OpCount {
				return Estimate{Valid: true, Value: 0, ErrBound: 0}
			}
			return Estimate{}
		}
		cntAbsErr := math.Max(cnt-cntLo, cntHi-cnt)
		switch q.Op {
		case OpCount:
			return Estimate{Valid: true, Value: cnt, ErrBound: withFloor(relErr(cntAbsErr, cnt))}
		case OpSum:
			return Estimate{Valid: true, Value: sum, ErrBound: withFloor(relErr(sumAbsErr, sum))}
		default: // OpAvg
			if cnt == 0 {
				return Estimate{}
			}
			avg := sum / cnt
			bound := withFloor(relErr(sumAbsErr, sum) + relErr(cntAbsErr, cnt))
			return Estimate{Valid: true, Value: avg, ErrBound: bound}
		}

	case OpMin, OpMax:
		best, bestW, found := 0.0, 0.0, false
		for _, s := range latest {
			if !q.inWindow(&s) {
				continue
			}
			v, w, ok := extremeInRange(s.Hist, q.ValueLo, q.ValueHi, q.Op == OpMax)
			if !ok {
				continue
			}
			if !found || (q.Op == OpMax && v > best) || (q.Op == OpMin && v < best) {
				best, bestW, found = v, w, true
			}
		}
		if !found {
			return Estimate{}
		}
		return Estimate{Valid: true, Value: best, ErrBound: relErr(bestW, best)}

	case OpQuantile:
		return quantileFromSummaries(q, latest, windowSec)
	}
	return Estimate{}
}

// extremeInRange locates the largest (or smallest) occupied histogram
// bin intersecting [lo,hi] and returns the range-clamped bin edge as
// the estimate with the bin width as absolute uncertainty.
func extremeInRange(h histogram.Histogram, lo, hi int, wantMax bool) (v, absErr float64, ok bool) {
	if h.Empty() || h.Total() == 0 {
		return 0, 0, false
	}
	w := h.BinWidth()
	found := false
	var best int
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		blo := h.Min + i*w
		bhi := blo + w - 1
		if i == len(h.Counts)-1 && h.Max > bhi {
			bhi = h.Max
		}
		if bhi < lo || blo > hi {
			continue
		}
		edge := bhi
		if !wantMax {
			edge = blo
		}
		if edge > hi {
			edge = hi
		}
		if edge < lo {
			edge = lo
		}
		if !found || (wantMax && edge > best) || (!wantMax && edge < best) {
			best, found = edge, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return float64(best), float64(w), true
}

// quantileFromSummaries merges per-node histogram mass into one value
// CDF over the query range and reads the q-quantile off it. The error
// bound is the widest contributing bin relative to the answer.
func quantileFromSummaries(q AggQuery, latest []SummarySnapshot, windowSec float64) Estimate {
	frac := q.Quantile
	if frac <= 0 || frac >= 1 {
		return Estimate{}
	}
	if q.ValueHi < q.ValueLo {
		return Estimate{}
	}
	span := q.ValueHi - q.ValueLo + 1
	if span > 1<<16 {
		return Estimate{} // refuse absurd dense-CDF domains
	}
	mass := make([]float64, span)
	maxW, total := 0.0, 0.0
	for _, s := range latest {
		if !q.inWindow(&s) || s.Hist.Empty() || s.Hist.Total() == 0 {
			continue
		}
		weight := s.Rate * windowSec
		if weight <= 0 {
			continue
		}
		if w := float64(s.Hist.BinWidth()); w > maxW {
			maxW = w
		}
		for v := q.ValueLo; v <= q.ValueHi; v++ {
			m := s.Hist.Prob(v) * weight
			mass[v-q.ValueLo] += m
			total += m
		}
	}
	if total == 0 {
		return Estimate{}
	}
	target := frac * total
	cum := 0.0
	for i, m := range mass {
		cum += m
		if cum >= target {
			v := float64(q.ValueLo + i)
			return Estimate{Valid: true, Value: v, ErrBound: relErr(maxW, v)}
		}
	}
	v := float64(q.ValueHi)
	return Estimate{Valid: true, Value: v, ErrBound: relErr(maxW, v)}
}
