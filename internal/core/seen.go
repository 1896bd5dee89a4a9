package core

import (
	"slices"

	"scoop/internal/netsim"
)

// idTable is a small flat table keyed by node ID: a sorted key array
// with the values in a parallel one, like routing.NeighborTable's. It
// holds an entry only for the IDs actually put in it, so a node's
// tables follow what it has heard rather than the size of the network
// (DESIGN.md §12), and a walk visits them in ascending ID order — the
// order a dense array indexed by ID would give.
type idTable[V any] struct {
	ids  []netsim.NodeID // ascending; ids[i] keys vals[i]
	vals []V
}

// at returns id's slot, inserting a zero one when absent. The pointer
// is valid until the next insertion or removal.
func (t *idTable[V]) at(id netsim.NodeID) *V {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok {
		if t.ids == nil {
			// Most tables stay this small; skip append's 1-2-4 steps.
			t.ids, t.vals = make([]netsim.NodeID, 0, 8), make([]V, 0, 8)
		}
		var zero V
		t.ids = slices.Insert(t.ids, i, id)
		t.vals = slices.Insert(t.vals, i, zero)
	}
	return &t.vals[i]
}

// remove deletes id's entry, if any.
func (t *idTable[V]) remove(id netsim.NodeID) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.vals = slices.Delete(t.vals, i, i+1)
	}
}

// clear empties the table, keeping its arrays for reuse.
func (t *idTable[V]) clear() {
	clear(t.vals)
	t.ids, t.vals = t.ids[:0], t.vals[:0]
}

// seenRow is one origin's dedup history: every key recorded, the
// newest two inline and the older ones spilled, oldest first, to a
// slice that starts at seenSpill keys — most rows hold a handful, so a
// row of two keys never allocates and one of six allocates once, and
// no row reserves room it may never use — plus the maximum key seen,
// which gives an O(1) fast path for the common case: per-origin keys
// (summary timestamps, query IDs, flush sequence numbers) arrive in
// increasing order, so a fresh key is usually above every key recorded
// before and needs no scan at all.
type seenRow struct {
	max    uint64
	newest [2]uint64 // newest[n-1] the last key recorded
	n      uint8     // keys in newest (0 only before the first)
	older  []uint64
}

// seenSpill is the capacity a row's spill slice starts at.
const seenSpill = 4

// record appends key as the row's newest.
func (r *seenRow) record(key uint64) {
	if r.n < uint8(len(r.newest)) {
		r.newest[r.n] = key
		r.n++
		return
	}
	if r.older == nil {
		r.older = make([]uint64, 0, seenSpill)
	}
	r.older = append(r.older, r.newest[0])
	r.newest[0], r.newest[1] = r.newest[1], key
}

// has reports whether key was recorded, scanning newest-first, where
// recent keys cluster.
func (r *seenRow) has(key uint64) bool {
	for k := int(r.n) - 1; k >= 0; k-- {
		if r.newest[k] == key {
			return true
		}
	}
	for k := len(r.older) - 1; k >= 0; k-- {
		if r.older[k] == key {
			return true
		}
	}
	return false
}

// seenTable is the forwarding-dedup store: one row per origin actually
// heard from, replacing the old flat hash maps on the per-delivery path
// (DESIGN.md §12). New in-order keys append without scanning;
// duplicates (link-layer retransmissions) and the rare out-of-order key
// scan the row newest-first.
type seenTable struct {
	rows idTable[seenRow]
}

// Seen reports whether (origin, key) was recorded before, recording it
// if not (check-and-mark).
func (s *seenTable) Seen(origin netsim.NodeID, key uint64) bool {
	r := s.rows.at(origin)
	switch {
	case r.n == 0 || key > r.max:
		r.max = key
	case r.has(key):
		return true
	}
	r.record(key)
	return false
}

// reset forgets everything (the reboot path: dedup state is RAM).
func (s *seenTable) reset() { s.rows = idTable[seenRow]{} }
