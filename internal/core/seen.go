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

// seenRow is one origin's dedup history: an append-only key list plus
// the maximum key seen, which gives an O(1) fast path for the common
// case — per-origin keys (summary timestamps, query IDs, flush
// sequence numbers) arrive in increasing order, so a fresh key is
// usually above every key recorded before and needs no scan at all.
type seenRow struct {
	keys []uint64
	max  uint64
	any  bool
}

// seenTable is the forwarding-dedup store: one row per origin actually
// heard from, replacing the old flat hash maps on the per-delivery path
// (DESIGN.md §12). New in-order keys append without scanning;
// duplicates (link-layer retransmissions) and the rare out-of-order key
// scan the row backwards, where recent keys cluster.
type seenTable struct {
	rows idTable[seenRow]
}

// Seen reports whether (origin, key) was recorded before, recording it
// if not (check-and-mark).
func (s *seenTable) Seen(origin netsim.NodeID, key uint64) bool {
	r := s.rows.at(origin)
	if !r.any || key > r.max {
		r.keys = append(r.keys, key)
		r.max, r.any = key, true
		return false
	}
	for k := len(r.keys) - 1; k >= 0; k-- {
		if r.keys[k] == key {
			return true
		}
	}
	r.keys = append(r.keys, key)
	return false
}

// reset forgets everything (the reboot path: dedup state is RAM).
func (s *seenTable) reset() { s.rows = idTable[seenRow]{} }
