package core

import (
	"math/bits"

	"scoop/internal/histogram"
	"scoop/internal/index"
	"scoop/internal/netsim"
	"scoop/internal/query"
	"scoop/internal/routing"
)

// SummaryMsg is the periodic statistics report every node sends up the
// routing tree (paper §5.2): a coarse histogram over recent readings,
// min/max/sum of those readings, the node's production rate, its
// best-connected neighbors, and the ID of the last complete storage
// index it holds. It is a recycled payload (netsim.Packet), one object:
// Hist.Counts and Neighbors slice its own arrays (DESIGN.md §12). A
// relay forwards the very message it heard, its send holding a
// reference (the TTL is the frame header's Hops), so no receiver writes
// it; the basestation copies what it keeps into summaries of its own,
// and the message goes back to its network's free list after its last
// delivery.
type SummaryMsg struct {
	netsim.Refs
	Node          netsim.NodeID
	Hist          histogram.Histogram
	Min, Max, Sum int
	Rate          float64 // readings per second over the recent window
	Neighbors     []routing.NeighborInfo
	LastIndexID   uint16
	SentAt        netsim.Time

	bins [nBins]uint16                        // Hist.Counts' array
	nbrs [neighborReport]routing.NeighborInfo // Neighbors' array
	free *netsim.FreeList[SummaryMsg]
}

// Recycle implements netsim.Recycled.
func (m *SummaryMsg) Recycle() {
	if free := m.free; free != nil {
		*m = SummaryMsg{}
		free.Put(m)
	}
}

// keep makes m a copy of the received summary r, its Hist.Counts and
// Neighbors slicing m's own arrays: what the basestation keeps of a
// summary.
func (m *SummaryMsg) keep(r *SummaryMsg) {
	*m = SummaryMsg{
		Node:        r.Node,
		Hist:        histogram.Histogram{Min: r.Hist.Min, Max: r.Hist.Max},
		Min:         r.Min,
		Max:         r.Max,
		Sum:         r.Sum,
		Rate:        r.Rate,
		LastIndexID: r.LastIndexID,
		SentAt:      r.SentAt,
	}
	if r.Hist.Counts != nil {
		m.Hist.Counts = append(m.bins[:0], r.Hist.Counts...)
	}
	if r.Neighbors != nil {
		m.Neighbors = append(m.nbrs[:0], r.Neighbors...)
	}
}

// summarySize approximates the on-air bytes of a summary message:
// histogram bins (2 B each), min/max/sum, rate, per-neighbor 3 B,
// plus the Scoop header.
func summarySize(m *SummaryMsg) int {
	return 14 + 2*len(m.Hist.Counts) + 3*len(m.Neighbors)
}

// DataMsg carries batched readings toward their owner (paper §5.4).
// Owner and SID may be rewritten in flight by nodes holding a newer
// storage index (routing rule 1). It is a recycled payload
// (netsim.Packet): it travels inside the sender's dataHop, which owns
// Readings and goes back to the network's free list after the last
// delivery, so a forwarder copies the readings into a hop of its own.
type DataMsg struct {
	netsim.Refs
	Readings []Reading
	Owner    netsim.NodeID
	SID      uint16
	hop      *dataHop
}

// Recycle implements netsim.Recycled.
func (m *DataMsg) Recycle() {
	if h := m.hop; h != nil {
		n, rs := h.n, m.Readings
		clear(rs)
		*h = dataHop{msg: DataMsg{Readings: rs[:0]}}
		n.net.hops.Put(h)
	}
}

func dataSize(m *DataMsg) int { return 10 + 4*len(m.Readings) }

// MappingMsg is one storage-index chunk under Trickle dissemination
// (paper §5.3). It is a recycled payload (netsim.Packet), back on its
// network's free list after the last delivery; the chunk's Entries are
// shared — the index they slice is immutable — so a receiver keeps the
// Chunk by value.
type MappingMsg struct {
	netsim.Refs
	Chunk index.Chunk
	free  *netsim.FreeList[MappingMsg]
}

// Recycle implements netsim.Recycled.
func (m *MappingMsg) Recycle() {
	if free := m.free; free != nil {
		*m = MappingMsg{}
		free.Put(m)
	}
}

// newMapping takes a MappingMsg for chunk c off free, with the sender's
// reference held.
func newMapping(free *netsim.FreeList[MappingMsg], c index.Chunk) *MappingMsg {
	m := free.Get()
	m.Chunk, m.free = c, free
	netsim.Hold(m)
	return m
}

func mappingSize(m *MappingMsg) int { return 12 + 5*len(m.Chunk.Entries) }

// QueryMsg is the query packet (paper §5.5): a bitmap of nodes expected
// to answer, plus the value and time ranges of interest. A node-list
// query has ValueLo > ValueHi (no value constraint, the convention
// DataBuffer.Select reads). Op selects what
// comes back: query.OpSelect, the zero value, asks for the matching
// tuples (ReplyMsg); any aggregate operator asks targeted nodes for
// partial-aggregate state instead, which intermediate nodes combine on
// the way up (AggReplyMsg, TAG-style in-network aggregation). It is a
// shared payload (netsim.Packet): every relay keeps the query it heard
// and re-broadcasts that same object under Trickle.
type QueryMsg struct {
	ID uint16
	Op query.Op
	// Track asks targeted nodes to carry a contributor bitmap in their
	// partials so the base can tell which owners a combined partial
	// folds in — the reliability layer's retry targeting needs it. Set
	// only on aggregate queries, and only when Config.QueryDeadline > 0.
	Track            bool
	Bitmap           Bitmap
	ValueLo, ValueHi int
	TimeLo, TimeHi   netsim.Time
}

// querySize is the paper's tuple-query packet plus one operator byte
// on aggregate queries and one more for the Track flag when set.
func querySize(q *QueryMsg) int {
	n := q.Bitmap.Bytes() + 14
	if q.Op != query.OpSelect {
		n++
	}
	if q.Track {
		n++
	}
	return n
}

// ReplyMsg carries a node's matching tuples back to the basestation.
// Count is the total number of matches; Readings is capped at
// replyMaxReadings (packet size), as a mote reply would be. It is a
// recycled payload (netsim.Packet) that owns Readings: back on its
// network's free list after the last delivery, so a forwarder copies it
// into a reply of its own.
type ReplyMsg struct {
	netsim.Refs
	QueryID  uint16
	Node     netsim.NodeID
	Count    int
	Readings []Reading
	free     *netsim.FreeList[ReplyMsg]
}

// Recycle implements netsim.Recycled.
func (m *ReplyMsg) Recycle() {
	if free := m.free; free != nil {
		rs := m.Readings
		clear(rs)
		*m = ReplyMsg{Readings: rs[:0]}
		free.Put(m)
	}
}

func replySize(m *ReplyMsg) int { return 8 + 4*len(m.Readings) }

// AggReplyMsg carries mergeable partial-aggregate state one hop
// toward the basestation. Node is the sender of this (possibly
// combined) partial; Seq distinguishes successive flushes by the same
// sender so retransmitted duplicates are dropped without double
// counting; Contribs counts the distinct targeted nodes folded into
// Part. Its frame's Hops is the largest hop count any merged partial
// has travelled. It is a recycled payload (netsim.Packet) that owns its
// contributor bitmap and carries its own resend state: the sender holds
// its reference until the link layer's last verdict (SendDone), and
// the last delivery puts it back on its network's free list.
type AggReplyMsg struct {
	netsim.Refs
	QueryID  uint16
	Node     netsim.NodeID
	Seq      uint8
	Contribs uint16
	Part     query.Partial
	// Nodes is the contributor bitmap: which targeted nodes this
	// partial folds in. Carried only for Track queries; empty (and
	// free on the air) otherwise.
	Nodes Bitmap

	// The resend state (SendDone): the sending node, the
	// frames' header Hops, the parent chosen at launch and the resends
	// made so far.
	n       *Node
	hops    uint8
	to      netsim.NodeID
	attempt int
}

// Recycle implements netsim.Recycled, keeping the contributor bitmap's
// spill array for the next partial.
func (m *AggReplyMsg) Recycle() {
	if n := m.n; n != nil {
		m.Nodes.reset()
		*m = AggReplyMsg{Nodes: m.Nodes}
		n.net.partials.Put(m)
	}
}

// aggReplySize is a fixed 22 bytes — ids/seq/contribs header plus the
// 14-byte partial (count, sum, min, max), a fraction of a tuple reply,
// which is the whole point — plus the contributor bitmap when the
// query asked for tracking.
func aggReplySize(m *AggReplyMsg) int {
	n := 8 + 14
	if !m.Nodes.Empty() {
		n += m.Nodes.Bytes()
	}
	return n
}

// Bitmap is the node bitmap in query packets and in the contributor
// sets of aggregate partials. The paper's fixed 128-bit field "puts an
// upper bound to the size of the sensor network; 128 nodes in our
// current implementation" (paper §5.5): lo holds it inline, so at
// N ≤ 128 a bitmap is part of the value that holds it and copies with
// it. The scale tier (DESIGN.md §12) spills nodes 128 and up into hi,
// grown only when such a node is marked; a struct copy shares hi. The
// on-air size (Bytes) keeps the paper's 16-byte floor — so query
// packets at N ≤ 128 are byte-for-byte the paper's — and grows with
// the highest targeted node beyond that. A node's record of the query
// IDs it has heard is a Bitmap too, a bit per ID since boot.
type Bitmap struct {
	lo [2]uint64 // nodes 0–127, the paper's field
	hi []uint64  // hi[i] holds nodes 128+64i to 191+64i
}

// word returns the bitmap's word wi, 0 past its end.
func (b *Bitmap) word(wi int) uint64 {
	if wi < len(b.lo) {
		return b.lo[wi]
	}
	if wi -= len(b.lo); wi < len(b.hi) {
		return b.hi[wi]
	}
	return 0
}

// at returns a pointer to word wi, growing hi to hold it: in one step,
// to exactly that word, so a caller that marks several words marks the
// highest first, or sizes the bitmap beforehand (fit).
func (b *Bitmap) at(wi int) *uint64 {
	if wi < len(b.lo) {
		return &b.lo[wi]
	}
	if k := wi - len(b.lo); k >= len(b.hi) {
		b.hi = append(b.hi, make([]uint64, k+1-len(b.hi))...)
	}
	return &b.hi[wi-len(b.lo)]
}

// fit sizes hi to hold node id's word, growing it in keys (growBy)
// when it must: the basestation fits a query's bitmaps to the network's
// highest node before it marks the targets in ascending order, and a
// node its record of heard query IDs to each new one.
func (b *Bitmap) fit(id netsim.NodeID, keys *netsim.Blocks[uint64]) {
	if k := int(id)>>6 + 1 - len(b.lo); k > len(b.hi) {
		b.hi = growBy(keys, b.hi, k-len(b.hi))
	}
}

// add marks node id, first fitting hi to it in keys, and reports
// whether it was marked before (check-and-mark).
func (b *Bitmap) add(id netsim.NodeID, keys *netsim.Blocks[uint64]) bool {
	if b.Has(id) {
		return true
	}
	b.fit(id, keys)
	b.Set(id)
	return false
}

// Set marks node id, spilling past node 127 as needed.
func (b *Bitmap) Set(id netsim.NodeID) {
	*b.at(int(id) >> 6) |= 1 << (uint(id) & 63)
}

// Has reports whether node id is marked.
func (b *Bitmap) Has(id netsim.NodeID) bool {
	return b.word(int(id)>>6)&(1<<(uint(id)&63)) != 0
}

// Bytes returns the field's on-air size: the paper's 16-byte bitmap
// for networks of up to 128 nodes, one byte per 8 nodes beyond that
// (sized by the highest targeted node, as a wire encoding would be).
func (b *Bitmap) Bytes() int {
	for wi := len(b.lo) + len(b.hi) - 1; wi >= len(b.lo); wi-- {
		if w := b.word(wi); w != 0 {
			hi := wi*64 + 63 - bits.LeadingZeros64(w)
			return hi/8 + 1
		}
	}
	return 16
}

// Count returns the number of marked nodes.
func (b *Bitmap) Count() int {
	n := bits.OnesCount64(b.lo[0]) + bits.OnesCount64(b.lo[1])
	for _, w := range b.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no node is marked.
func (b *Bitmap) Empty() bool {
	if b.lo != [2]uint64{} {
		return false
	}
	for _, w := range b.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Or folds other's marked nodes into b, the highest word first.
func (b *Bitmap) Or(other *Bitmap) {
	b.lo[0] |= other.lo[0]
	b.lo[1] |= other.lo[1]
	for i := len(other.hi) - 1; i >= 0; i-- {
		if w := other.hi[i]; w != 0 {
			*b.at(len(b.lo) + i) |= w
		}
	}
}

// Intersects reports whether b and other share any marked node.
func (b *Bitmap) Intersects(other *Bitmap) bool {
	if b.lo[0]&other.lo[0] != 0 || b.lo[1]&other.lo[1] != 0 {
		return true
	}
	for i, w := range b.hi {
		if i < len(other.hi) && w&other.hi[i] != 0 {
			return true
		}
	}
	return false
}

// AndNot returns the nodes marked in b but not in other — the silent
// set the reliability layer re-asks.
func (b *Bitmap) AndNot(other *Bitmap) Bitmap {
	out := Bitmap{lo: [2]uint64{b.lo[0] &^ other.lo[0], b.lo[1] &^ other.lo[1]}}
	for i := len(b.hi) - 1; i >= 0; i-- { // the highest word first: out grows once
		if w := b.hi[i] &^ other.word(len(b.lo)+i); w != 0 {
			*out.at(len(b.lo) + i) = w
		}
	}
	return out
}

// copyFrom makes b mark what other marks, reusing b's spill array: a
// recycled message or combine buffer owns its bitmap.
func (b *Bitmap) copyFrom(other *Bitmap) {
	b.lo = other.lo
	b.hi = append(b.hi[:0], other.hi...)
}

// reset unmarks every node, keeping the spill array for reuse.
func (b *Bitmap) reset() {
	clear(b.hi)
	*b = Bitmap{hi: b.hi[:0]}
}
