package core

import (
	"cmp"
	"math/bits"
	"slices"

	"scoop/internal/netsim"
)

// idTable is a small flat table keyed by node ID (or another small
// integer): a sorted key array with the values in a parallel one, like
// routing.NeighborTable's. It holds an entry only for the IDs actually
// put in it, so a node's tables follow what it has heard rather than
// the size of the network (DESIGN.md §12), and a walk visits them in
// ascending ID order — the order a dense array indexed by ID would give.
type idTable[K cmp.Ordered, V any] struct {
	ids  []K // ascending; ids[i] keys vals[i]
	vals []V
}

// idTableMin is the capacity a table starts at: most stay this small.
const idTableMin = 8

// index returns id's position, inserting a zero entry there when absent,
// the arrays growing in ids and vals.
func (t *idTable[K, V]) index(id K, ids *netsim.Blocks[K], vals *netsim.Blocks[V]) int {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok {
		var zero V
		t.ids = slices.Insert(netsim.Grow(ids, t.ids, idTableMin), i, id)
		t.vals = slices.Insert(netsim.Grow(vals, t.vals, idTableMin), i, zero)
	}
	return i
}

// at returns id's slot, inserting a zero one when absent. The pointer is
// valid until the next insertion or removal.
func (t *idTable[K, V]) at(id K, ids *netsim.Blocks[K], vals *netsim.Blocks[V]) *V {
	return &t.vals[t.index(id, ids, vals)]
}

// remove deletes id's entry, if any.
func (t *idTable[K, V]) remove(id K) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.vals = slices.Delete(t.vals, i, i+1)
	}
}

// clear empties the table, keeping its arrays for reuse.
func (t *idTable[K, V]) clear() {
	clear(t.vals)
	t.ids, t.vals = t.ids[:0], t.vals[:0]
}

// seenRow is one origin's dedup history: every key recorded, in
// ascending order, at spill[off : off+n] in a segment of seenRoom(n)
// keys of its table's shared spill array. Per-origin keys (summary
// send times, sample times) mostly arrive in increasing order, so a
// fresh key usually goes at the end without a search, and a duplicate
// (a link-layer retransmission) or the rare out-of-order key is found
// by binary search.
type seenRow struct{ off, n uint32 }

// seenRoom is the segment a row of n keys holds: none before its first
// key, then the power of two at or above n, from 2.
func seenRoom(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	return max(2, uint32(1)<<bits.Len32(n-1))
}

// seenTable is the dedup store keyed by send or sample time — a relay's
// summary forwarding, the readings stored in the run and at the
// basestation, and a query's collected tuples: one row per origin
// actually heard from, replacing the old flat hash maps on the
// per-delivery path (DESIGN.md §12). Times are not dense, so a row
// keeps every key. The spill array holds every row's segment in row
// order with no gap, as bitTable's does: a row that fills its segment
// doubles it and moves the rows after it along, so nothing is
// abandoned, and the spill is at most twice the keys. Rows and the
// spill array grow by doubling in the network's blocks Seen is given.
type seenTable struct {
	rows  idTable[netsim.NodeID, seenRow]
	spill []uint64
}

// Seen reports whether (origin, key) was recorded before, recording it
// if not (check-and-mark). The table grows in b.
func (s *seenTable) Seen(b *seenBlocks, origin netsim.NodeID, key uint64) bool {
	i := s.rows.index(origin, &b.ids, &b.rows)
	r := &s.rows.vals[i]
	at := int(r.n)
	if at > 0 && key <= s.spill[r.off+r.n-1] {
		var found bool
		if at, found = slices.BinarySearch(s.spill[r.off:r.off+r.n], key); found {
			return true
		}
	}
	if r.n == seenRoom(r.n) {
		s.widen(i, &b.spill)
	}
	row := s.spill[r.off : r.off+r.n+1]
	copy(row[at+1:], row[at:])
	row[at] = key
	r.n++
	return false
}

// widen doubles full row i's segment (a new row's first: its empty
// segment is where the next row's starts), the rows after it moving up
// by as many keys, the spill growing in keys.
func (s *seenTable) widen(i int, keys *netsim.Blocks[uint64]) {
	r := &s.rows.vals[i]
	if r.n == 0 {
		r.off = uint32(len(s.spill))
		if i+1 < len(s.rows.vals) {
			r.off = s.rows.vals[i+1].off
		}
	}
	d := seenRoom(r.n+1) - seenRoom(r.n)
	end, size := int(r.off+r.n), len(s.spill)
	s.spill = growBy(keys, s.spill, int(d))
	copy(s.spill[end+int(d):], s.spill[end:size])
	for j := i + 1; j < len(s.rows.vals); j++ {
		s.rows.vals[j].off += d
	}
}

// release empties the table, putting its arrays back in b for other
// tables: a table that will record nothing more.
func (s *seenTable) release(b *seenBlocks) {
	b.ids.Put(s.rows.ids)
	b.rows.Put(s.rows.vals)
	b.spill.Put(s.spill)
	*s = seenTable{}
}

// reset forgets everything (the reboot path: dedup state is RAM),
// keeping the arrays for reuse.
func (s *seenTable) reset() {
	s.rows.clear()
	s.spill = s.spill[:0]
}

// bitTable is the forwarding dedup of replies and aggregate partials:
// an exact set of (row, query ID) pairs, one row per origin (or per
// sender and flush sequence number) actually heard from. A row holds
// its query IDs as a bitset over the words from the lowest ID recorded
// to the highest, the first word inline and the others in the table's
// spill array, which holds every row's words in row order with no gap:
// a row that widens shifts the rows after it, so the array is exactly
// the words the rows use and nothing is left behind (DESIGN.md §12).
// An origin's query IDs cluster, so a key costs a few bits, where a
// seenTable row spends 64 on each.
type bitTable struct {
	rows  idTable[uint32, bitRow]
	spill []uint64
}

// bitRow is one row of a bitTable: the bits of the query IDs
// [64*base, 64*(base+n)), word 0 inline and words 1 to n-1 at
// spill[off:].
type bitRow struct {
	lo   uint64
	off  uint32
	base uint16 // the window's first word
	n    uint16 // words in the window, 0 before the first key
}

// partRow is a partial-aggregate dedup row: one per sender and flush
// sequence number, its keys the query IDs, so each (sender, query, seq)
// a relay or the base accepts is one bit.
func partRow(sender netsim.NodeID, seq uint8) uint32 {
	return uint32(seq)<<16 | uint32(sender)
}

// Seen reports whether (row, key) was recorded before, recording it if
// not (check-and-mark). The table grows in b.
func (t *bitTable) Seen(b *seenBlocks, row uint32, key uint16) bool {
	i := t.rows.index(row, &b.ids32, &b.bitRows)
	r := &t.rows.vals[i]
	w := int(key >> 6)
	switch {
	case r.n == 0: // a new row: its empty segment is where the next row's starts
		r.base, r.n, r.off = uint16(w), 1, uint32(len(t.spill))
		if i+1 < len(t.rows.vals) {
			r.off = t.rows.vals[i+1].off
		}
	case w < int(r.base) || w >= int(r.base)+int(r.n):
		t.widen(i, w, &b.keys)
	}
	p := &r.lo
	if k := w - int(r.base); k > 0 {
		p = &t.spill[int(r.off)+k-1]
	}
	bit := uint64(1) << (key & 63)
	if *p&bit != 0 {
		return true
	}
	*p |= bit
	return false
}

// widen stretches row i's window to cover word w: the words it gains
// open at the end of its segment, the rows after it move up by as many,
// and a window that grows downward shifts its words up to make word 0
// the new first.
func (t *bitTable) widen(i, w int, keys *netsim.Blocks[uint64]) {
	r := &t.rows.vals[i]
	base := min(int(r.base), w)
	n := max(int(r.base)+int(r.n), w+1) - base
	d, old := n-int(r.n), int(r.n)-1
	end, size := int(r.off)+old, len(t.spill)
	t.spill = growBy(keys, t.spill, d)
	copy(t.spill[end+d:], t.spill[end:size])
	clear(t.spill[end : end+d])
	for j := i + 1; j < len(t.rows.vals); j++ {
		t.rows.vals[j].off += uint32(d)
	}
	if shift := int(r.base) - base; shift > 0 { // then d == shift
		seg := t.spill[r.off : int(r.off)+n-1]
		copy(seg[shift:], seg[:old])
		clear(seg[:shift])
		seg[shift-1], r.lo = r.lo, 0
	}
	r.base, r.n = uint16(base), uint16(n)
}

// reset forgets everything (the reboot path), keeping the arrays.
func (t *bitTable) reset() {
	t.rows.clear()
	t.spill = t.spill[:0]
}

// wordsMin is the capacity a spill of bitset words starts at.
const wordsMin = 4

// growBy returns s lengthened by d zero words: in place when the array
// has room, else copied into one taken from keys, at least twice as
// large, s's own put back.
func growBy(keys *netsim.Blocks[uint64], s []uint64, d int) []uint64 {
	k := len(s)
	if k+d > cap(s) {
		t := append(keys.Take(max(2*cap(s), k+d, wordsMin)), s...)
		keys.Put(s)
		s = t
	}
	s = s[:k+d]
	clear(s[k:])
	return s
}

// dataSeenCap is how many readings a node's data-dedup cache holds:
// enough for the copies of one reading to meet within it on the paths
// this simulator sees, at 12 bytes a reading (DESIGN.md §7, §12).
const dataSeenCap = 32

// A copy's arrival hop count is a bit of a uint32 mask, so the TTL may
// not exceed 32 (the constant shift overflows if it does).
const _ = uint32(1) << (maxHops - 1)

// seenReading is one reading in a node's data-dedup cache.
type seenReading struct {
	t        uint32 // sample time in ms, truncated: the cache spans seconds
	producer uint16
	stored   bool   // stored here: every later copy is dropped
	hops     uint32 // bit h: a copy that arrived with header Hops h was accepted
}

// dataSeen is a node's data-frame dedup cache: the dataSeenCap readings
// it heard most recently, the oldest replaced first. A copy is keyed by
// its reading and the header hop count it arrived with — CTP's (origin,
// seqno, THL) — so a link-layer retransmission is dropped, while a copy
// that comes back one detour later (a failed rule-5 send falling back
// to rule 6, the parent) is routed again: every copy dropped has an
// accepted twin that was stored, loss-accounted or sent on one hop
// further (DESIGN.md §7). It is RAM: a reboot empties it.
type dataSeen struct {
	e    [dataSeenCap]seenReading
	n    uint8 // entries in use
	next uint8 // the entry a new reading replaces once all are in use
}

// find returns r's entry, replacing the oldest with an empty one for r
// when r is not held.
func (c *dataSeen) find(r Reading) *seenReading {
	t, p := uint32(r.Time), r.Producer
	for i := range c.e[:c.n] {
		if e := &c.e[i]; e.t == t && e.producer == p {
			return e
		}
	}
	var e *seenReading
	if c.n < dataSeenCap {
		e = &c.e[c.n]
		c.n++
	} else {
		e = &c.e[c.next]
		c.next = (c.next + 1) % dataSeenCap
	}
	*e = seenReading{t: t, producer: p}
	return e
}

// accept reports whether a copy of r that arrived with header hops is
// new here — not stored, and no copy accepted with the same hop count —
// and records it (check-and-mark).
func (c *dataSeen) accept(r Reading, hops uint8) bool {
	e := c.find(r)
	bit := uint32(1) << hops
	if e.hops&bit != 0 {
		return false
	}
	e.hops |= bit
	return true
}

// store records r as stored here, every hop bit set so no later copy
// is accepted, and reports whether it already was.
func (c *dataSeen) store(r Reading) (was bool) {
	e := c.find(r)
	was = e.stored
	e.stored, e.hops = true, ^uint32(0)
	return was
}
