package histogram

import (
	"fmt"
	"io"
	"math/bits"
)

// Log2Buckets is the fixed bucket count of a Log2 histogram: bucket 0
// holds the value 0 (and clamped negatives), bucket k ≥ 1 holds values
// in [2^(k-1), 2^k). An int64 sample can never reach past bucket 63.
const Log2Buckets = 64

// Log2 is a power-of-two-bucket histogram for non-negative integer
// samples (heap depths, dwell times, span lengths). Unlike Histogram —
// whose equal-width bins need the value range up front — Log2 covers
// the whole int64 range with a fixed array, so Record is a single
// increment with no allocation and no rescaling: safe on the
// simulator's per-event hot path.
//
// The zero value is an empty histogram ready for use.
type Log2 struct {
	counts [Log2Buckets]int64
	total  int64
	max    int64
}

// Record adds one sample. Negative samples clamp to 0.
func (h *Log2) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Merge folds another histogram into h (bucket-wise sum; max of max).
// The benchmark module sums its per-call latency accumulators with it.
func (h *Log2) Merge(o Log2) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// Total returns the number of recorded samples.
func (h *Log2) Total() int64 { return h.total }

// Log2Bound returns the inclusive upper bound of bucket k: 0 for
// bucket 0, 2^k − 1 otherwise.
func Log2Bound(k int) int64 {
	if k <= 0 {
		return 0
	}
	if k >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(k) - 1
}

// Quantile returns the inclusive upper bound of the bucket containing
// the q-quantile sample (q clamped to [0,1]; 0 when empty). The bound
// is a guaranteed "≤" statement: at least a q fraction of samples are
// no larger than the returned value.
func (h *Log2) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for k, c := range h.counts {
		seen += c
		if seen >= rank {
			return Log2Bound(k)
		}
	}
	return h.max
}

// Log2Bucket is one non-empty bucket of a Log2 histogram.
type Log2Bucket struct {
	Lo, Hi int64 // inclusive sample range
	Count  int64
}

// Buckets returns the non-empty buckets in ascending range order.
func (h *Log2) Buckets() []Log2Bucket {
	var out []Log2Bucket
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if k > 0 {
			lo = Log2Bound(k-1) + 1
		}
		out = append(out, Log2Bucket{Lo: lo, Hi: Log2Bound(k), Count: c})
	}
	return out
}

// log2BarWidth is the widest count bar WriteTable renders.
const log2BarWidth = 40

// WriteTable renders the non-empty buckets as an aligned text table
// with proportional count bars; unit labels the sample dimension
// (e.g. "ms"). Rendering is deterministic: fixed bucket order, integer
// counts only.
func (h *Log2) WriteTable(out io.Writer, unit string) error {
	if h.total == 0 {
		_, err := fmt.Fprintf(out, "  (no samples)\n")
		return err
	}
	var peak int64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	for _, b := range h.Buckets() {
		bar := int(b.Count * log2BarWidth / peak)
		if bar < 1 {
			bar = 1
		}
		if _, err := fmt.Fprintf(out, "  %12d..%-12d %s %10d  %s\n",
			b.Lo, b.Hi, unit, b.Count, strings40(bar)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(out, "  samples=%d max=%d%s p50≤%d%s p99≤%d%s\n",
		h.total, h.max, unit, h.Quantile(0.50), unit, h.Quantile(0.99), unit)
	return err
}

// log2Bar backs the proportional bars without per-call allocation.
const log2Bar = "########################################"

func strings40(n int) string {
	if n > len(log2Bar) {
		n = len(log2Bar)
	}
	return log2Bar[:n]
}
