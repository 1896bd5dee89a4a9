package core

import (
	"math/bits"

	"scoop/internal/dense"
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
// index it holds. It is a shared payload (netsim.Packet): the
// basestation keeps every summary it receives, so none is reused, and a
// relay forwards the very message it heard (its TTL is the frame
// header's Hops). A sent summary is one object: Hist.Counts and
// Neighbors slice its own arrays (DESIGN.md §12).
type SummaryMsg struct {
	Node          netsim.NodeID
	Hist          histogram.Histogram
	Min, Max, Sum int
	Rate          float64 // readings per second over the recent window
	Neighbors     []routing.NeighborInfo
	LastIndexID   uint16
	SentAt        netsim.Time

	bins [nBins]uint16                        // Hist.Counts' array
	nbrs [neighborReport]routing.NeighborInfo // Neighbors' array
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
	ID               uint16
	Bitmap           Bitmap
	Op               query.Op
	ValueLo, ValueHi int
	TimeLo, TimeHi   netsim.Time
	// Track asks targeted nodes to carry a contributor bitmap in their
	// partials so the base can tell which owners a combined partial
	// folds in — the reliability layer's retry targeting needs it. Set
	// only on aggregate queries, and only when Config.QueryDeadline > 0.
	Track bool
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
// has travelled.
type AggReplyMsg struct {
	QueryID  uint16
	Node     netsim.NodeID
	Seq      uint8
	Contribs uint16
	Part     query.Partial
	// Nodes is the contributor bitmap: which targeted nodes this
	// partial folds in. Carried only for Track queries; empty (and
	// free on the air) otherwise.
	Nodes Bitmap
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

// Bitmap is the node bitmap in query packets. The paper's fixed
// 128-bit field "puts an upper bound to the size of the sensor
// network; 128 nodes in our current implementation" (paper §5.5); the
// scale tier (DESIGN.md §12) replaces it with a variable-length bitmap
// whose on-air size (Bytes) keeps the paper's 16-byte floor — so
// query packets at N ≤ 128 are byte-for-byte the paper's — and grows
// with the highest targeted node beyond that.
type Bitmap struct {
	w []uint64
}

// Set marks node id, growing the bitmap as needed.
func (b *Bitmap) Set(id netsim.NodeID) {
	wi := int(id) >> 6
	b.w = dense.Grow(b.w, wi)
	b.w[wi] |= 1 << (uint(id) & 63)
}

// Has reports whether node id is marked.
func (b *Bitmap) Has(id netsim.NodeID) bool {
	wi := int(id) >> 6
	if wi >= len(b.w) {
		return false
	}
	return b.w[wi]&(1<<(uint(id)&63)) != 0
}

// Bytes returns the field's on-air size: the paper's 16-byte bitmap
// for networks of up to 128 nodes, one byte per 8 nodes beyond that
// (sized by the highest targeted node, as a wire encoding would be).
func (b *Bitmap) Bytes() int {
	for wi := len(b.w) - 1; wi >= 0; wi-- {
		if w := b.w[wi]; w != 0 {
			hi := wi*64 + 63 - bits.LeadingZeros64(w)
			if n := hi/8 + 1; n > 16 {
				return n
			}
			return 16
		}
	}
	return 16
}

// Count returns the number of marked nodes.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no node is marked.
func (b *Bitmap) Empty() bool {
	for _, w := range b.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Or folds other's marked nodes into b.
func (b *Bitmap) Or(other *Bitmap) {
	if len(other.w) > 0 {
		b.w = dense.Grow(b.w, len(other.w)-1)
	}
	for i, w := range other.w {
		b.w[i] |= w
	}
}

// Intersects reports whether b and other share any marked node.
func (b *Bitmap) Intersects(other *Bitmap) bool {
	n := len(b.w)
	if len(other.w) < n {
		n = len(other.w)
	}
	for i := 0; i < n; i++ {
		if b.w[i]&other.w[i] != 0 {
			return true
		}
	}
	return false
}

// AndNot returns the nodes marked in b but not in other — the silent
// set the reliability layer re-asks.
func (b *Bitmap) AndNot(other *Bitmap) Bitmap {
	var out Bitmap
	for i, w := range b.w {
		if i < len(other.w) {
			w &^= other.w[i]
		}
		if w != 0 {
			out.w = dense.Grow(out.w, i)
			out.w[i] = w
		}
	}
	return out
}

// IDs returns all marked nodes in ascending order.
func (b *Bitmap) IDs() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, b.Count())
	for wi, w := range b.w {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, netsim.NodeID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}
