// Package routing implements the multihop routing-tree substrate Scoop
// runs on (paper §2.2 and §5.1): a spanning tree rooted at the
// basestation built from periodic beacons, Woo-style snoop-based link
// quality estimation, a bounded neighbor table, and a bounded
// descendants list used to route packets down the tree.
//
// Both bounded tables are small flat arrays maintained in place
// (DESIGN.md §12), with no map, no allocation and no
// rebuild-from-scratch on the per-delivery hot path — at 1000 nodes
// every delivered or snooped frame lands in Observe, each on a
// different node, so the path is laid out by the cache lines it
// fetches: the Tree holds the neighbor table by value beside its clock,
// the table finds an id through its inline index, and past the Tree a
// snoop reads the line of one 16-byte entry.
package routing

import (
	"fmt"
	"slices"

	"scoop/internal/netsim"
)

// NeighborInfo is one entry of a node's neighbor table, and also the
// per-neighbor record shipped to the basestation inside summary
// messages ("a list of the node's n best connected neighbors, sorted
// by link-quality", paper §5.2).
type NeighborInfo struct {
	ID      netsim.NodeID
	Quality float64 // estimated delivery probability neighbor→me
}

// neighborState is 16 bytes, four to a cache line. The counters are
// windowed: Observe halves them once they pass 64 and adds at most
// 1 + 16 in one call, so neither ever exceeds 81.
type neighborState struct {
	lastSeq   uint32
	received  uint16
	missed    uint16
	lastHeard netsim.Time
}

// quality returns the received/(received+missed) estimate the paper
// describes: neighbours put a monotonically increasing number in every
// packet header, and gaps count as losses. A small pessimistic prior
// keeps one lucky reception from reading as a perfect link — routing
// over such phantom links is how congestion hubs form.
func (s *neighborState) quality() float64 {
	total := int(s.received) + int(s.missed)
	if total == 0 {
		return 0
	}
	return float64(s.received) / float64(total+2)
}

// NeighborTable tracks the nodes a mote can hear, estimating per-link
// quality from sequence-number gaps. Capacity is bounded (32 in the
// paper's experiments, MaxNeighborCap at most); the stalest entry is
// evicted when full, and entries not heard from for evictAfter are
// dropped, "thus adapting to changes in network connectivity". Entries
// live in a flat bounded slice in insertion order, compacted in place
// on eviction, keyed by a parallel id array. The per-snoop lookup goes
// through index, an open-addressing table inline in the struct: a hit
// reads one slot, usually the first probed, and then the one line its
// 16-byte entry is on. A removal rebuilds the index from the ids.
type NeighborTable struct {
	entries    []neighborState // cap(entries) is the table's capacity
	index      [indexSlots]uint16
	ids        []netsim.NodeID // ids[i] keys entries[i]
	evictAfter netsim.Time
}

// The id index of a NeighborTable: indexSlots slots, each 0 (empty) or
// an id in its low idBits bits and the id's entry position + 1 above
// them. Every node id fits idBits (the constant below fails to compile
// otherwise), so a slot's id is the whole id and a hit needs no second
// look at the id array; at most half the slots are in use, so a probe
// ends within a few slots.
const (
	idBits     = 10
	idMask     = 1<<idBits - 1
	indexSlots = 64

	// MaxNeighborCap is the largest capacity a table accepts:
	// the index stays at most half full, and a position + 1 fits the
	// 16 - idBits bits above the id.
	MaxNeighborCap = indexSlots / 2
)

const _ = uint(1<<idBits - netsim.MaxNodes) // every node id fits a slot

// homeSlot is the first slot probed for id (Fibonacci hashing: grid
// neighbours' ids differ by the row length, which a low-bits mask
// would map onto the same slots).
func homeSlot(id netsim.NodeID) int { return int(uint32(id) * 0x9E3779B1 >> 26) }

// find returns the index of id's entry, or -1.
func (t *NeighborTable) find(id netsim.NodeID) int {
	for h := homeSlot(id); ; h = (h + 1) % indexSlots {
		s := t.index[h]
		if s == 0 {
			return -1
		}
		if s&idMask == uint16(id) {
			return int(s>>idBits) - 1
		}
	}
}

// indexAdd records that id's entry is at position i.
func (t *NeighborTable) indexAdd(id netsim.NodeID, i int) {
	if id > idMask {
		panic(fmt.Sprintf("routing: neighbor id %d is not below netsim.MaxNodes", id))
	}
	h := homeSlot(id)
	for t.index[h] != 0 {
		h = (h + 1) % indexSlots
	}
	t.index[h] = uint16(i+1)<<idBits | uint16(id)
}

// reindex rebuilds the index after entries moved.
func (t *NeighborTable) reindex() {
	t.index = [indexSlots]uint16{}
	for i, id := range t.ids {
		t.indexAdd(id, i)
	}
}

// Observe records that a packet with sequence number seq was heard from
// id at time now.
func (t *NeighborTable) Observe(id netsim.NodeID, seq uint32, now netsim.Time) {
	i := t.find(id)
	if i < 0 {
		if len(t.entries) == cap(t.entries) {
			t.evictStalest()
		}
		t.indexAdd(id, len(t.ids))
		t.ids = append(t.ids, id)
		t.entries = append(t.entries, neighborState{
			lastSeq: seq, received: 1, lastHeard: now,
		})
		return
	}
	s := &t.entries[i]
	if seq > s.lastSeq {
		miss := seq - s.lastSeq - 1
		if miss > 16 {
			miss = 16 // a long silence is staleness, not 100 losses
		}
		s.missed += uint16(miss)
		s.lastSeq = seq
		s.received++
	} else {
		// Reordered or duplicate frame: count the reception, no gap.
		s.received++
	}
	s.lastHeard = now
	// Window the counters so the estimate tracks current conditions.
	if s.received+s.missed > 64 {
		s.received = (s.received + 1) / 2
		s.missed = s.missed / 2
	}
}

// evictStalest drops the least recently heard entry of a full table, so
// a newcomer is always admitted. Ties break toward the earliest-inserted
// entry — a fixed, deterministic rule where the old map-backed table
// left the victim to random iteration order.
func (t *NeighborTable) evictStalest() {
	victim := 0
	for i := range t.entries {
		if t.entries[i].lastHeard < t.entries[victim].lastHeard {
			victim = i
		}
	}
	t.remove(victim)
}

// remove deletes entry i, preserving insertion order.
func (t *NeighborTable) remove(i int) {
	t.ids = slices.Delete(t.ids, i, i+1)
	t.entries = slices.Delete(t.entries, i, i+1)
	t.reindex()
}

// Expire drops entries not heard from within the eviction window.
func (t *NeighborTable) Expire(now netsim.Time) {
	if t.evictAfter <= 0 {
		return
	}
	k := 0
	for i, s := range t.entries {
		if now-s.lastHeard <= t.evictAfter {
			t.ids[k], t.entries[k] = t.ids[i], s
			k++
		}
	}
	if k < len(t.ids) {
		t.ids, t.entries = t.ids[:k], t.entries[:k]
		t.reindex()
	}
}

// Quality returns the current link-quality estimate for id (0 when
// unknown).
func (t *NeighborTable) Quality(id netsim.NodeID) float64 {
	if i := t.find(id); i >= 0 {
		return t.entries[i].quality()
	}
	return 0
}

// Contains reports whether id is currently tracked.
func (t *NeighborTable) Contains(id netsim.NodeID) bool { return t.find(id) >= 0 }

// Len reports the number of tracked neighbors.
func (t *NeighborTable) Len() int { return len(t.entries) }

// Clear forgets every neighbor, keeping the arrays for reuse.
func (t *NeighborTable) Clear() {
	t.ids, t.entries = t.ids[:0], t.entries[:0]
	t.index = [indexSlots]uint16{}
}

// best orders entries by descending quality, then ascending ID.
func best(a, b NeighborInfo) bool {
	if a.Quality != b.Quality {
		return a.Quality > b.Quality
	}
	return a.ID < b.ID
}

// Best appends to dst up to n entries sorted by descending quality, the
// list shipped in beacons and summary messages (8 and 12 in the paper's
// experiments). The list outlives the table state inside a message
// payload, so the caller supplies its storage (a beacon keeps it
// inline); the selection is an incremental top-n insertion over the
// bounded table and allocates nothing while dst has room.
func (t *NeighborTable) Best(dst []NeighborInfo, n int) []NeighborInfo {
	if n > len(t.entries) {
		n = len(t.entries)
	}
	base := len(dst)
	for i := range t.entries {
		cand := NeighborInfo{ID: t.ids[i], Quality: t.entries[i].quality()}
		if len(dst)-base == n {
			if n == 0 || !best(cand, dst[len(dst)-1]) {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		// Insertion into the (short) sorted suffix.
		k := len(dst)
		dst = append(dst, cand)
		for k > base && best(dst[k], dst[k-1]) {
			dst[k], dst[k-1] = dst[k-1], dst[k]
			k--
		}
	}
	return dst
}

// Tracked returns the tracked neighbor IDs in table order without
// copying: the table's own key array, read-only and good until the next
// Observe or Expire.
func (t *NeighborTable) Tracked() []netsim.NodeID { return t.ids }

// descendant is one DescendantSet entry: its origin is reached via
// child.
type descendant struct {
	child   netsim.NodeID
	touched netsim.Time
}

// DescendantSet maps descendants to the child branch they are reached
// through, learned by tracking the origin of packets routed up the
// tree (paper §5.1). Bounded capacity (32 in the experiments) with
// stalest-entry eviction; overflow merely degrades routing, it never
// breaks it (packets fall back to the parent path). Entries live in a
// flat bounded slice keyed by a parallel origin array, like the
// neighbor table's.
type DescendantSet struct {
	cap     int
	origins []netsim.NodeID // origins[i] keys entries[i]
	entries []descendant
}

func (d *DescendantSet) find(origin netsim.NodeID) int { return slices.Index(d.origins, origin) }

// remove deletes entry i, preserving insertion order.
func (d *DescendantSet) remove(i int) {
	d.origins = slices.Delete(d.origins, i, i+1)
	d.entries = slices.Delete(d.entries, i, i+1)
}

// Record notes that packets from origin arrive via child, i.e. origin
// is in child's subtree.
func (d *DescendantSet) Record(origin, child netsim.NodeID, now netsim.Time) {
	i := d.find(origin)
	if i < 0 {
		if len(d.entries) >= d.cap {
			victim, oldest := 0, netsim.Time(1<<62-1)
			for k := range d.entries {
				if d.entries[k].touched < oldest {
					oldest, victim = d.entries[k].touched, k
				}
			}
			d.remove(victim)
		}
		d.origins = append(d.origins, origin)
		d.entries = append(d.entries, descendant{child: child, touched: now})
		return
	}
	d.entries[i].child = child
	d.entries[i].touched = now
}

// NextHop returns the child branch leading to dst, if known.
func (d *DescendantSet) NextHop(dst netsim.NodeID) (netsim.NodeID, bool) {
	if i := d.find(dst); i >= 0 {
		return d.entries[i].child, true
	}
	return 0, false
}

// Forget drops a descendant (e.g. when delivery via its branch fails).
func (d *DescendantSet) Forget(dst netsim.NodeID) {
	if i := d.find(dst); i >= 0 {
		d.remove(i)
	}
}

// Clear forgets every descendant, keeping the arrays for reuse.
func (d *DescendantSet) Clear() { d.origins, d.entries = d.origins[:0], d.entries[:0] }

// Tracked returns the recorded descendants in table order without
// copying: the set's own key array, read-only and good until the next
// Record or Forget.
func (d *DescendantSet) Tracked() []netsim.NodeID { return d.origins }
