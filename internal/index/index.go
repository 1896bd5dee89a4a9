// Package index implements Scoop's storage index: the value→owner
// mapping the basestation computes from collected statistics (paper
// §4), its compaction into value ranges, its split into mapping-message
// chunks for Trickle dissemination and reassembly on nodes (paper
// §5.3), and the expected-transmissions (xmits) estimator the
// cost-based construction algorithm uses.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"scoop/internal/netsim"
)

// Entry maps the value range [Lo,Hi] (inclusive) to one owner node.
type Entry struct {
	Lo, Hi int
	Owner  netsim.NodeID
}

// Index is one storage index generation: a compacted, sorted,
// non-overlapping set of value-range→owner mappings covering
// [MinValue, MaxValue]. IDs increase monotonically; nodes always
// prefer the index with the highest ID they have fully assembled.
//
// Local marks the degenerate "store-local" policy index the
// basestation may choose when its expected cost beats every
// single-owner mapping (paper §4); it carries no entries.
type Index struct {
	ID       uint16
	MinValue int
	MaxValue int
	Local    bool
	Entries  []Entry
}

// New builds a compacted index from a dense owner slice: owners[i] is
// the owner of value minValue+i. Consecutive values with the same
// owner coalesce into a single range entry (paper §5.3).
func New(id uint16, minValue int, owners []netsim.NodeID) *Index {
	if len(owners) == 0 {
		panic("index: empty owner assignment")
	}
	ix := &Index{ID: id, MinValue: minValue, MaxValue: minValue + len(owners) - 1}
	lo := 0
	for i := 1; i <= len(owners); i++ {
		if i == len(owners) || owners[i] != owners[lo] {
			ix.Entries = append(ix.Entries, Entry{
				Lo:    minValue + lo,
				Hi:    minValue + i - 1,
				Owner: owners[lo],
			})
			lo = i
		}
	}
	return ix
}

// NewLocal returns a store-local index generation.
func NewLocal(id uint16) *Index { return &Index{ID: id, Local: true} }

// Owner returns the node responsible for storing value v. ok is false
// for values outside the index domain or for store-local indices
// (every node is its own owner then).
func (ix *Index) Owner(v int) (netsim.NodeID, bool) {
	if ix.Local || len(ix.Entries) == 0 || v < ix.MinValue || v > ix.MaxValue {
		return 0, false
	}
	// Binary search over sorted, non-overlapping ranges.
	i := sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].Hi >= v })
	if i < len(ix.Entries) && ix.Entries[i].Lo <= v && v <= ix.Entries[i].Hi {
		return ix.Entries[i].Owner, true
	}
	return 0, false
}

// Similarity returns the fraction of the value domain mapped to the
// same owner by both indices. The basestation suppresses dissemination
// of a new index that is very similar to the previous one (paper §5.3).
func Similarity(a, b *Index) float64 {
	if a == nil || b == nil {
		return 0
	}
	if a.Local || b.Local {
		if a.Local && b.Local {
			return 1
		}
		return 0
	}
	lo := a.MinValue
	if b.MinValue < lo {
		lo = b.MinValue
	}
	hi := a.MaxValue
	if b.MaxValue > hi {
		hi = b.MaxValue
	}
	if hi < lo {
		return 0
	}
	same, total := 0, 0
	for v := lo; v <= hi; v++ {
		oa, oka := a.Owner(v)
		ob, okb := b.Owner(v)
		total++
		if oka && okb && oa == ob {
			same++
		}
	}
	return float64(same) / float64(total)
}

// String renders the index compactly for logs and debugging.
func (ix *Index) String() string {
	if ix.Local {
		return fmt.Sprintf("index#%d(store-local)", ix.ID)
	}
	return fmt.Sprintf("index#%d[%d..%d] %d ranges", ix.ID, ix.MinValue, ix.MaxValue, len(ix.Entries))
}

// Chunk is one mapping message: a slice of a storage index small
// enough to fit a radio packet (paper §5.3). Chunks of one index share
// IndexID; Num runs 0..Total-1.
type Chunk struct {
	IndexID  uint16
	Num      uint8
	Total    uint8
	MinValue int
	MaxValue int
	Local    bool
	Entries  []Entry
}

// Chunks splits the index into mapping messages of at most perChunk
// entries each. A store-local index yields a single header-only chunk.
func (ix *Index) Chunks(perChunk int) []Chunk {
	if perChunk <= 0 {
		panic("index: non-positive chunk size")
	}
	if ix.Local {
		return []Chunk{{IndexID: ix.ID, Num: 0, Total: 1, Local: true}}
	}
	n := (len(ix.Entries) + perChunk - 1) / perChunk
	if n > 255 {
		panic("index: too many chunks for uint8 numbering")
	}
	chunks := make([]Chunk, 0, n)
	for i := 0; i < n; i++ {
		lo := i * perChunk
		hi := lo + perChunk
		if hi > len(ix.Entries) {
			hi = len(ix.Entries)
		}
		chunks = append(chunks, Chunk{
			IndexID:  ix.ID,
			Num:      uint8(i),
			Total:    uint8(n),
			MinValue: ix.MinValue,
			MaxValue: ix.MaxValue,
			Entries:  append([]Entry(nil), ix.Entries[lo:hi]...),
		})
	}
	return chunks
}

// ChunkSet is a node's mapping chunks in ascending (IndexID, Num)
// order — the order of their Trickle keys — in one flat array. It is
// both the store a node gossips from and the assembler: nodes may
// receive chunks from several index generations interleaved, a
// generation becomes usable once all its chunks are held, and the
// owner drops superseded generations with DropBefore (paper §5.3:
// nodes with incomplete storage indices continue to use the older
// complete one). The zero value is an empty set that assembles its own
// indices; a set given its network's Generations shares them.
type ChunkSet struct {
	chunks []Chunk
	// Shared, when non-nil, is the network's: the chunk array grows in
	// its blocks and Complete adopts its one index per generation.
	Shared *Generations
}

// Generations is what the chunk sets of one network share: the blocks
// their chunk arrays grow in, and one immutable *Index per generation
// completed. Every node that completes generation id adopts the index
// the first one stitched, rather than building its own copy, so a
// network holds each generation once (DESIGN.md §12).
type Generations struct {
	chunks netsim.Blocks[Chunk]
	built  []*Index // ascending ID
}

// find returns the position of chunk num of generation id, or where it
// would insert.
func (s *ChunkSet) find(id uint16, num uint8) (int, bool) {
	return slices.BinarySearchFunc(s.chunks, chunkKey(id, num), func(c Chunk, k uint32) int {
		return cmp.Compare(chunkKey(c.IndexID, c.Num), k)
	})
}

func chunkKey(id uint16, num uint8) uint32 { return uint32(id)<<8 | uint32(num) }

// Get returns chunk num of generation id, if held.
func (s *ChunkSet) Get(id uint16, num uint8) (Chunk, bool) {
	if i, ok := s.find(id, num); ok {
		return s.chunks[i], true
	}
	return Chunk{}, false
}

// chunkSetMin is the capacity a chunk array starts at: a generation's
// few chunks fit it.
const chunkSetMin = 8

// Insert adds c, replacing a held chunk with the same IndexID and Num.
func (s *ChunkSet) Insert(c Chunk) {
	i, ok := s.find(c.IndexID, c.Num)
	if ok {
		s.chunks[i] = c
		return
	}
	var b *netsim.Blocks[Chunk]
	if s.Shared != nil {
		b = &s.Shared.chunks
	}
	s.chunks = netsim.Grow(b, s.chunks, chunkSetMin)
	s.chunks = slices.Insert(s.chunks, i, c)
}

// Generation returns the held chunks of generation id in Num order. The
// slice aliases the set: it is good until the next Insert, DropBefore
// or Clear.
func (s *ChunkSet) Generation(id uint16) []Chunk {
	lo, _ := s.find(id, 0)
	hi := lo
	for hi < len(s.chunks) && s.chunks[hi].IndexID == id {
		hi++
	}
	return s.chunks[lo:hi]
}

// Complete returns generation id stitched into an index when the set
// holds chunks 0..total-1 of it, else nil. With Shared set, the index
// is the network's one for id: the first set to complete it stitches
// it, and every later one whose chunks stitch to it entry for entry
// adopts it (a set whose chunks disagree gets its own). No holder may
// write it.
func (s *ChunkSet) Complete(id uint16, total uint8) *Index {
	g := s.Generation(id)
	if len(g) < int(total) || total == 0 || g[total-1].Num != total-1 {
		return nil // nums are distinct and ascending: the last says whether any is missing
	}
	g = g[:total]
	if s.Shared == nil {
		return stitch(id, g)
	}
	built := s.Shared.built
	i, ok := slices.BinarySearchFunc(built, id, func(ix *Index, id uint16) int { return cmp.Compare(ix.ID, id) })
	if !ok {
		s.Shared.built = slices.Insert(built, i, stitch(id, g))
		return s.Shared.built[i]
	}
	if ix := built[i]; stitches(ix, g) {
		return ix
	}
	return stitch(id, g) // chunks that disagree with the network's: this set's own
}

// stitch builds generation id from its chunks g, in Num order.
func stitch(id uint16, g []Chunk) *Index {
	c, n := g[0], 0
	for _, part := range g {
		n += len(part.Entries)
	}
	ix := &Index{ID: id, MinValue: c.MinValue, MaxValue: c.MaxValue, Local: c.Local}
	if n > 0 {
		ix.Entries = make([]Entry, 0, n)
	}
	for _, part := range g {
		ix.Entries = append(ix.Entries, part.Entries...)
	}
	return ix
}

// stitches reports whether stitching chunks g gives ix, entry for entry.
func stitches(ix *Index, g []Chunk) bool {
	c, rest := g[0], ix.Entries
	if ix.MinValue != c.MinValue || ix.MaxValue != c.MaxValue || ix.Local != c.Local {
		return false
	}
	for _, part := range g {
		if len(part.Entries) > len(rest) || !slices.Equal(part.Entries, rest[:len(part.Entries)]) {
			return false
		}
		rest = rest[len(part.Entries):]
	}
	return len(rest) == 0
}

// Before returns the held chunks of generations older than id in key
// order, aliasing the set like Generation.
func (s *ChunkSet) Before(id uint16) []Chunk {
	i, _ := s.find(id, 0)
	return s.chunks[:i]
}

// DropBefore drops every chunk of a generation older than id.
func (s *ChunkSet) DropBefore(id uint16) {
	i, _ := s.find(id, 0)
	s.chunks = slices.Delete(s.chunks, 0, i)
}

// Clear drops every chunk, keeping the array for reuse.
func (s *ChunkSet) Clear() {
	clear(s.chunks)
	s.chunks = s.chunks[:0]
}
