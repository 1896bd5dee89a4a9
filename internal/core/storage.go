// A sensor node's Flash storage as the Scoop paper uses it: a
// fixed-capacity circular buffer of stored readings (the "data
// buffer", scanned linearly at query time by Select) and a small round-robin
// buffer of the node's own most recent readings (the "recent-readings
// buffer", size 30 in the paper) from which summary histograms are
// built.
//
// A reading records who produced it and when, so time-ranged queries
// and owner re-assignment across storage-index generations both work.

package core

import "scoop/internal/netsim"

// Reading is one stored sensor sample.
type Reading struct {
	Producer uint16 // node that sampled the value
	Value    int    // attribute value (paper: 12-bit readings)
	Time     int64  // virtual ms timestamp of the sample
}

// DataBuffer is the node's circular Flash data buffer. When full, new
// writes overwrite the oldest entries, like the paper's round-robin
// Flash log. The backing slice grows with what is stored, up to the
// capacity, and is a ring from then on: a mote's log costs memory for
// the readings it holds, not for the Flash it could fill (DESIGN.md
// §12). A log grows in its network's blocks, a mote's and the
// basestation's alike. The zero value is unusable; use NewDataBuffer.
type DataBuffer struct {
	buf    []Reading // len < capacity: append order; len == capacity: ring
	cap    int
	next   int                     // ring slot the next Store overwrites (the oldest reading)
	blocks *netsim.Blocks[Reading] // where buf grows
}

// NewDataBuffer returns a buffer holding at most capacity readings,
// growing in blocks.
func NewDataBuffer(capacity int, blocks *netsim.Blocks[Reading]) *DataBuffer {
	if capacity <= 0 {
		panic("core: non-positive capacity")
	}
	return &DataBuffer{cap: capacity, blocks: blocks}
}

// Store appends r, overwriting the oldest reading when full.
func (b *DataBuffer) Store(r Reading) {
	if len(b.buf) < b.cap {
		if len(b.buf) == cap(b.buf) {
			// Double, but never past the capacity: a full log occupies
			// what the capacity says, not append's next size step.
			grown := append(b.blocks.Take(min(max(2*len(b.buf), 32), b.cap)), b.buf...)
			b.blocks.Put(b.buf)
			b.buf = grown
		}
		b.buf = append(b.buf, r)
		return
	}
	b.buf[b.next] = r
	b.next++
	if b.next == b.cap {
		b.next = 0
	}
}

// Holds reports whether a reading of r's producer and sample time is
// stored.
func (b *DataBuffer) Holds(r Reading) bool {
	for i := range b.buf {
		if b.buf[i].Time == r.Time && b.buf[i].Producer == r.Producer {
			return true
		}
	}
	return false
}

// Clear empties the buffer, as NewDataBuffer returns it, keeping the
// backing slice for reuse (a rebooting mote's path).
func (b *DataBuffer) Clear() {
	b.buf, b.next = b.buf[:0], 0
}

// Select calls fn, oldest-first, for every stored reading with Time in
// [tmin,tmax] and Value in [vmin,vmax] (inclusive bounds): the one
// window test behind every query-time scan. An inverted value range
// (vmin > vmax) means "no value filter" — how a node-list query, which
// constrains producers rather than values, travels.
func (b *DataBuffer) Select(vmin, vmax int, tmin, tmax int64, fn func(Reading)) {
	anyValue := vmin > vmax
	for _, run := range [2][]Reading{b.buf[b.next:], b.buf[:b.next]} {
		for _, r := range run {
			if r.Time >= tmin && r.Time <= tmax && (anyValue || r.Value >= vmin && r.Value <= vmax) {
				fn(r)
			}
		}
	}
}

// RecentBuffer is the fixed-size round-robin buffer of a node's own
// most recent readings (paper §5.2, size 30), the input to summary
// histograms.
type RecentBuffer struct {
	buf   []int
	next  int
	count int
}

// Add records one reading, evicting the oldest when full.
func (b *RecentBuffer) Add(v int) {
	b.buf[b.next] = v
	b.next = (b.next + 1) % len(b.buf)
	if b.count < len(b.buf) {
		b.count++
	}
}

// Clear empties the buffer in place, keeping its size.
func (b *RecentBuffer) Clear() {
	clear(b.buf)
	b.next, b.count = 0, 0
}

// Len reports how many readings are buffered.
func (b *RecentBuffer) Len() int { return b.count }

// AppendValues appends the buffered readings to dst, oldest-first, and
// returns the extended slice: a caller that keeps dst between calls
// reads the ring without allocating.
func (b *RecentBuffer) AppendValues(dst []int) []int {
	start := 0 // the oldest reading: slot 0 until the ring wraps
	if b.count == len(b.buf) {
		start = b.next
	}
	dst = append(dst, b.buf[start:b.count]...)
	return append(dst, b.buf[:start]...)
}

// MinMaxSum returns the smallest and largest buffered value and the sum
// of all buffered values — the extra summary-message fields the paper
// sends alongside the histogram. ok is false when the buffer is empty.
// It folds the ring in place, in slot order: none of the three depends
// on the order.
func (b *RecentBuffer) MinMaxSum() (min, max, sum int, ok bool) {
	if b.count == 0 {
		return 0, 0, 0, false
	}
	vals := b.buf[:b.count]
	min, max = vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return min, max, sum, true
}
