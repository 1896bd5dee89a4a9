// Package histogram implements the equal-width summary histograms
// Scoop nodes report to the basestation (paper §5.2), and the
// probability estimator P(p→v) the index-construction algorithm
// derives from them.
//
// A histogram has nBins fixed-width bins spanning [Min, Max], the
// smallest and largest values the attribute took on during the node's
// recent history. Bin n counts readings in
//
//	[Min + n·w, Min + (n+1)·w)  with  w = (Max-Min+1)/nBins
//
// using integer arithmetic exactly as a mote would.
package histogram

// Histogram is a coarse fixed-width histogram over one node's recent
// readings. It is the payload of a summary message.
type Histogram struct {
	Min, Max int      // observed value range (inclusive)
	Counts   []uint16 // per-bin reading counts
}

// Build constructs a histogram with nBins bins from the given readings.
// It returns the zero Histogram (Counts == nil) when values is empty.
func Build(values []int, nBins int) Histogram {
	if nBins <= 0 {
		panic("histogram: non-positive bin count")
	}
	if len(values) == 0 {
		return Histogram{}
	}
	return Fill(values, make([]uint16, nBins))
}

// Fill is Build counting into the caller's bins, one per element of
// counts, which it zeroes first: a summary holds its bins inline. The
// order of values does not matter. It returns the zero Histogram when
// values is empty.
func Fill(values []int, counts []uint16) Histogram {
	if len(values) == 0 {
		return Histogram{}
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	clear(counts)
	h := Histogram{Min: min, Max: max, Counts: counts}
	w, nBins := h.binWidth(), len(counts)
	for _, v := range values {
		bin := (v - min) / w
		if bin >= nBins {
			bin = nBins - 1 // integer-width rounding can spill past the end
		}
		h.Counts[bin]++
	}
	return h
}

// Empty reports whether the histogram summarises no readings.
func (h Histogram) Empty() bool { return len(h.Counts) == 0 }

// binWidth returns the integer bin width the paper's formula yields;
// always at least 1.
func (h Histogram) binWidth() int {
	w := (h.Max - h.Min + 1) / len(h.Counts)
	if w < 1 {
		w = 1
	}
	return w
}

// BinWidth exposes the integer bin width (for tests and diagnostics).
func (h Histogram) BinWidth() int {
	if h.Empty() {
		return 0
	}
	return h.binWidth()
}

// Total returns the number of readings summarised.
func (h Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += int(c)
	}
	return t
}

// Prob estimates P(node produces value v) from the histogram, using
// the paper's estimator: P(v|bin)·P(bin), where values within a bin
// are assumed uniformly distributed. Values outside every bin have
// probability 0.
func (h Histogram) Prob(v int) float64 {
	if h.Empty() {
		return 0
	}
	total := h.Total()
	if total == 0 {
		return 0
	}
	w := h.binWidth()
	bin := (v - h.Min) / w
	if v < h.Min || bin < 0 {
		return 0
	}
	if bin >= len(h.Counts) {
		// The last bin absorbs the integer-rounding spill, but values
		// beyond Max are outside the observed range.
		if v > h.Max {
			return 0
		}
		bin = len(h.Counts) - 1
	}
	pBin := float64(h.Counts[bin]) / float64(total)
	pInBin := 1.0 / float64(w)
	return pInBin * pBin
}
