// Package index implements Scoop's storage index: the value→owner
// mapping the basestation computes from collected statistics (paper
// §4), its compaction into value ranges, its split into mapping-message
// chunks for Trickle dissemination and reassembly on nodes (paper
// §5.3), and the expected-transmissions (xmits) estimator the
// cost-based construction algorithm uses.
package index

import (
	"fmt"
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

// Owners returns the distinct owners of values in [lo,hi], the node
// set a query for that range must contact.
func (ix *Index) Owners(lo, hi int) []netsim.NodeID {
	seen := make(map[netsim.NodeID]bool)
	var out []netsim.NodeID
	for _, e := range ix.Entries {
		if e.Hi < lo || e.Lo > hi {
			continue
		}
		if !seen[e.Owner] {
			seen[e.Owner] = true
			out = append(out, e.Owner)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// MaxEntriesPerChunk is how many range entries fit one mapping message:
// a TinyOS payload of ~24 usable bytes at 5 bytes per entry (2+2 value
// bounds, 1 owner) after the chunk header.
const MaxEntriesPerChunk = 4

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

// Assembler reassembles chunks into complete indices on a node. Nodes
// may receive chunks from multiple index generations interleaved; only
// a fully assembled generation becomes usable, and older generations
// are discarded once a newer complete one exists (paper §5.3: nodes
// with incomplete storage indices continue to use the older complete
// one).
type Assembler struct {
	partial map[uint16]map[uint8]Chunk
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{partial: make(map[uint16]map[uint8]Chunk)}
}

// Offer adds one received chunk. It returns the completed index when
// this chunk was the last missing piece of its generation, else nil.
func (a *Assembler) Offer(c Chunk) *Index {
	m, ok := a.partial[c.IndexID]
	if !ok {
		m = make(map[uint8]Chunk)
		a.partial[c.IndexID] = m
	}
	m[c.Num] = c
	if len(m) < int(c.Total) {
		return nil
	}
	// Complete: stitch entries back together in chunk order.
	ix := &Index{ID: c.IndexID, MinValue: c.MinValue, MaxValue: c.MaxValue, Local: c.Local}
	for num := uint8(0); num < c.Total; num++ {
		part, ok := m[num]
		if !ok {
			return nil // Total mismatch across generations; keep waiting
		}
		ix.Entries = append(ix.Entries, part.Entries...)
	}
	delete(a.partial, c.IndexID)
	// Drop stale partial generations.
	for id := range a.partial {
		if id <= c.IndexID {
			delete(a.partial, id)
		}
	}
	return ix
}

// HasChunk reports whether the assembler already holds chunk num of
// generation id (used for Trickle suppression decisions).
func (a *Assembler) HasChunk(id uint16, num uint8) bool {
	m, ok := a.partial[id]
	if !ok {
		return false
	}
	_, ok = m[num]
	return ok
}

// Pending reports how many generations have partial state.
func (a *Assembler) Pending() int { return len(a.partial) }
