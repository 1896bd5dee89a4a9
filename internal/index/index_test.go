package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"scoop/internal/netsim"
)

// offer is what a node does with a received chunk: keep it unless held
// and, when that completes its generation, drop the older ones.
func offer(s *ChunkSet, c Chunk) *Index {
	if _, held := s.Get(c.IndexID, c.Num); held {
		return nil
	}
	s.Insert(c)
	ix := s.Complete(c.IndexID, c.Total)
	if ix != nil {
		s.DropBefore(c.IndexID)
	}
	return ix
}

func TestNewCompaction(t *testing.T) {
	owners := []netsim.NodeID{2, 2, 2, 1, 5, 5, 2}
	ix := New(7, 20, owners)
	if len(ix.Entries) != 4 {
		t.Fatalf("entries = %d, want 4 (compaction)", len(ix.Entries))
	}
	want := []Entry{{20, 22, 2}, {23, 23, 1}, {24, 25, 5}, {26, 26, 2}}
	for i, e := range want {
		if ix.Entries[i] != e {
			t.Fatalf("entry %d = %+v, want %+v", i, ix.Entries[i], e)
		}
	}
	if ix.MinValue != 20 || ix.MaxValue != 26 {
		t.Fatalf("domain [%d,%d]", ix.MinValue, ix.MaxValue)
	}
}

func TestOwnerLookup(t *testing.T) {
	ix := New(1, 0, []netsim.NodeID{3, 3, 7, 7, 7, 1})
	cases := []struct {
		v    int
		want netsim.NodeID
		ok   bool
	}{
		{0, 3, true}, {1, 3, true}, {2, 7, true}, {4, 7, true}, {5, 1, true},
		{-1, 0, false}, {6, 0, false},
	}
	for _, c := range cases {
		got, ok := ix.Owner(c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("Owner(%d) = %d,%v, want %d,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

// Property: compaction round-trips — Owner(v) equals the dense
// assignment for every v, for arbitrary assignments.
func TestCompactionRoundTripProperty(t *testing.T) {
	f := func(raw []uint8, minSeed int8) bool {
		if len(raw) == 0 {
			return true
		}
		minV := int(minSeed)
		owners := make([]netsim.NodeID, len(raw))
		for i, r := range raw {
			owners[i] = netsim.NodeID(r % 16)
		}
		ix := New(1, minV, owners)
		for i, want := range owners {
			got, ok := ix.Owner(minV + i)
			if !ok || got != want {
				return false
			}
		}
		_, ok := ix.Owner(minV - 1)
		_, ok2 := ix.Owner(minV + len(owners))
		return !ok && !ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: entries are sorted, non-overlapping and cover the domain.
func TestEntriesCoverDomainProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		owners := make([]netsim.NodeID, len(raw))
		for i, r := range raw {
			owners[i] = netsim.NodeID(r % 8)
		}
		ix := New(1, 0, owners)
		next := 0
		for _, e := range ix.Entries {
			if e.Lo != next || e.Hi < e.Lo {
				return false
			}
			next = e.Hi + 1
		}
		return next == len(owners)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A range query contacts the owners of the entries overlapping it. An
// owner that recurs non-contiguously holds two entries, and each entry
// names the owner Owner reports for every value it covers; a range
// outside the domain overlaps no entry and no value in it has an owner.
func TestOwnersRange(t *testing.T) {
	ix := New(1, 0, []netsim.NodeID{3, 3, 7, 7, 1, 3})
	var got []netsim.NodeID
	for _, e := range ix.Entries {
		if e.Hi < 1 || e.Lo > 4 {
			continue
		}
		got = append(got, e.Owner)
		for v := max(e.Lo, 1); v <= min(e.Hi, 4); v++ {
			if o, ok := ix.Owner(v); !ok || o != e.Owner {
				t.Fatalf("Owner(%d) = %d, %v; entry %+v says %d", v, o, ok, e, e.Owner)
			}
		}
	}
	if want := []netsim.NodeID{3, 7, 1}; !slices.Equal(got, want) {
		t.Fatalf("owners of [1,4] by entry = %v, want %v", got, want)
	}
	if n := len(ix.Entries); n != 4 || ix.Entries[0].Owner != ix.Entries[3].Owner {
		t.Fatalf("entries = %+v, want owner 3 in two non-adjacent entries", ix.Entries)
	}
	for _, e := range ix.Entries {
		if e.Hi >= 100 && e.Lo <= 200 {
			t.Fatalf("entry %+v overlaps out-of-domain range [100,200]", e)
		}
	}
	for v := 100; v <= 200; v++ {
		if o, ok := ix.Owner(v); ok {
			t.Fatalf("out-of-domain Owner(%d) = %d", v, o)
		}
	}
}

func TestSimilarity(t *testing.T) {
	a := New(1, 0, []netsim.NodeID{1, 1, 2, 2})
	b := New(2, 0, []netsim.NodeID{1, 1, 2, 3})
	if s := Similarity(a, b); s != 0.75 {
		t.Fatalf("similarity = %f, want 0.75", s)
	}
	if s := Similarity(a, a); s != 1 {
		t.Fatalf("self similarity = %f", s)
	}
	if Similarity(a, nil) != 0 {
		t.Fatal("nil similarity nonzero")
	}
	if Similarity(NewLocal(1), NewLocal(2)) != 1 {
		t.Fatal("two local indices must be identical")
	}
	if Similarity(a, NewLocal(3)) != 0 {
		t.Fatal("local vs range index must differ")
	}
}

// chunkEntries is the chunk size these tests split indices into; the
// protocol's own size is core's.
const chunkEntries = 4

func TestChunksRoundTrip(t *testing.T) {
	owners := make([]netsim.NodeID, 150)
	r := rand.New(rand.NewSource(1))
	for i := range owners {
		owners[i] = netsim.NodeID(r.Intn(10))
	}
	ix := New(42, 0, owners)
	chunks := ix.Chunks(chunkEntries)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	// Deliver in a shuffled order with duplicates.
	set := ChunkSet{Shared: &Generations{}}
	order := r.Perm(len(chunks))
	var got *Index
	for _, i := range order {
		if g := offer(&set, chunks[i]); g != nil {
			got = g
		}
		offer(&set, chunks[i]) // duplicate must be harmless
	}
	if got == nil {
		t.Fatal("assembly never completed")
	}
	if got.ID != 42 || got.MinValue != ix.MinValue || got.MaxValue != ix.MaxValue {
		t.Fatalf("assembled header mismatch: %v vs %v", got, ix)
	}
	for v := 0; v < 150; v++ {
		a, _ := ix.Owner(v)
		b, ok := got.Owner(v)
		if !ok || a != b {
			t.Fatalf("assembled index differs at %d: %d vs %d", v, a, b)
		}
	}
}

// Property: chunk/assemble round-trips for arbitrary assignments and
// chunk sizes, regardless of delivery order.
func TestChunkAssembleProperty(t *testing.T) {
	f := func(raw []uint8, perChunkSeed uint8, permSeed int64) bool {
		if len(raw) == 0 {
			return true
		}
		owners := make([]netsim.NodeID, len(raw))
		for i, r := range raw {
			owners[i] = netsim.NodeID(r % 5)
		}
		ix := New(9, 0, owners)
		per := int(perChunkSeed%6) + 1
		chunks := ix.Chunks(per)
		set := ChunkSet{Shared: &Generations{}}
		r := rand.New(rand.NewSource(permSeed))
		var got *Index
		for _, i := range r.Perm(len(chunks)) {
			if g := offer(&set, chunks[i]); g != nil {
				got = g
			}
		}
		if got == nil {
			return false
		}
		for v := 0; v < len(owners); v++ {
			a, _ := ix.Owner(v)
			b, ok := got.Owner(v)
			if !ok || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerIncomplete(t *testing.T) {
	ix := New(3, 0, make([]netsim.NodeID, 40)) // 40 values → 1 entry... force more
	owners := make([]netsim.NodeID, 40)
	for i := range owners {
		owners[i] = netsim.NodeID(i % 7)
	}
	ix = New(3, 0, owners)
	chunks := ix.Chunks(2)
	set := ChunkSet{Shared: &Generations{}}
	for _, c := range chunks[:len(chunks)-1] {
		if offer(&set, c) != nil {
			t.Fatal("completed without all chunks")
		}
	}
	if len(set.chunks) != len(chunks)-1 || len(set.Generation(3)) != len(chunks)-1 {
		t.Fatalf("holds %d chunks, %d of generation 3; want %d", len(set.chunks), len(set.Generation(3)), len(chunks)-1)
	}
	if _, ok := set.Get(3, 0); !ok {
		t.Fatal("Get lost a chunk")
	}
	if _, ok := set.Get(3, chunks[len(chunks)-1].Num); ok {
		t.Fatal("Get invented the missing chunk")
	}
}

func TestAssemblerDropsStaleGenerations(t *testing.T) {
	old := New(5, 0, []netsim.NodeID{1, 2, 1, 2, 1, 2, 1, 2})
	cur := New(6, 0, []netsim.NodeID{3, 4, 3, 4, 3, 4, 3, 4})
	set := ChunkSet{Shared: &Generations{}}
	// Partial old generation...
	offer(&set, old.Chunks(2)[0])
	// ...then the new generation completes.
	var got *Index
	for _, c := range cur.Chunks(2) {
		got = offer(&set, c)
	}
	if got == nil || got.ID != 6 {
		t.Fatalf("generation 6 did not complete: %v", got)
	}
	if len(set.Before(6)) != 0 || len(set.Generation(5)) != 0 || len(set.chunks) != len(cur.Chunks(2)) {
		t.Fatalf("stale partial generation retained: %d chunks held, %d of generation 5",
			len(set.chunks), len(set.Generation(5)))
	}
}

func TestLocalIndexChunks(t *testing.T) {
	ix := NewLocal(9)
	chunks := ix.Chunks(4)
	if len(chunks) != 1 || !chunks[0].Local {
		t.Fatalf("local chunks = %+v", chunks)
	}
	set := ChunkSet{Shared: &Generations{}}
	got := offer(&set, chunks[0])
	if got == nil || !got.Local || got.ID != 9 {
		t.Fatalf("assembled local = %+v", got)
	}
	if _, ok := got.Owner(5); ok {
		t.Fatal("local index resolved an owner")
	}
}

func TestChunksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0, []netsim.NodeID{1}).Chunks(0)
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0, nil)
}

// refAssembler is the map-of-maps assembler the chunk set replaced,
// kept as its reference model: per generation a map of the chunks
// offered, a generation complete when it holds Total of them, stale
// generations dropped on completion.
type refAssembler struct {
	partial map[uint16]map[uint8]Chunk
}

func (a *refAssembler) Offer(c Chunk) *Index {
	m, ok := a.partial[c.IndexID]
	if !ok {
		m = make(map[uint8]Chunk)
		a.partial[c.IndexID] = m
	}
	m[c.Num] = c
	if len(m) < int(c.Total) {
		return nil
	}
	ix := &Index{ID: c.IndexID, MinValue: c.MinValue, MaxValue: c.MaxValue, Local: c.Local}
	for num := uint8(0); num < c.Total; num++ {
		part, ok := m[num]
		if !ok {
			return nil
		}
		ix.Entries = append(ix.Entries, part.Entries...)
	}
	delete(a.partial, c.IndexID)
	for id := range a.partial {
		if id <= c.IndexID {
			delete(a.partial, id)
		}
	}
	return ix
}

// refNode is a node's chunk handling before the chunk set: the gossip
// store a map by key beside the assembler, a chunk of a generation
// older than the current index refused, and the store purged below the
// current index on every completion.
type refNode struct {
	held map[uint32]Chunk
	asm  refAssembler
	cur  *Index
}

func (n *refNode) onChunk(c Chunk) (held, stale bool) {
	k := chunkKey(c.IndexID, c.Num)
	if _, ok := n.held[k]; ok {
		return true, false
	}
	if n.cur != nil && c.IndexID < n.cur.ID {
		return false, true
	}
	n.held[k] = c
	if complete := n.asm.Offer(c); complete != nil {
		if n.cur == nil || complete.ID > n.cur.ID {
			n.cur = complete
		}
		for k, c := range n.held {
			if c.IndexID < n.cur.ID {
				delete(n.held, k)
			}
		}
	}
	return false, false
}

// setNode is the same handling on the chunk set (core.Node.handleChunk).
type setNode struct {
	set ChunkSet
	cur *Index
}

func (n *setNode) onChunk(c Chunk) (held, stale bool) {
	if _, ok := n.set.Get(c.IndexID, c.Num); ok {
		return true, false
	}
	if n.cur != nil && c.IndexID < n.cur.ID {
		return false, true
	}
	n.set.Insert(c)
	if complete := n.set.Complete(c.IndexID, c.Total); complete != nil {
		if n.cur == nil || complete.ID > n.cur.ID {
			n.cur = complete
		}
		n.set.DropBefore(n.cur.ID)
	}
	return false, false
}

// TestChunkSetMatchesAssembler feeds a node on the chunk set and one on
// the map and reference assembler the same stream of chunks — six
// generations of different sizes, delivered out of order, mostly from
// the newest few, with duplicates, stale stragglers and now and then a
// chunk of the same generation cut to another size, so Totals
// disagree — and requires what the node acts on to agree after every
// chunk: the held / stale answer, the index in use, and the chunks
// held, in key order. (The two may differ in a generation completing
// twice, which leaves the index in use as it was.) Two more nodes share
// one network's Generations: one hears the same stream, one hears it a
// few chunks late. Each must use an index equal, entry for entry, to
// what a node whose chunk set has Generations of its own assembles from
// its stream, and the late one must adopt the first one's index rather than build its own.
func TestChunkSetMatchesAssembler(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		var gens, recut [][]Chunk
		for id := uint16(1); id <= 6; id++ {
			owners := make([]netsim.NodeID, 1+r.Intn(40))
			for i := range owners {
				owners[i] = netsim.NodeID(r.Intn(4))
			}
			ix := New(id, 0, owners)
			if r.Intn(8) == 0 {
				ix = NewLocal(id)
			}
			gens = append(gens, ix.Chunks(1+r.Intn(4)))
			recut = append(recut, ix.Chunks(1+r.Intn(4)))
		}
		ref := &refNode{held: map[uint32]Chunk{}, asm: refAssembler{partial: map[uint16]map[uint8]Chunk{}}}
		got := &setNode{set: ChunkSet{Shared: &Generations{}}}
		shared := &Generations{}
		first, late, latePrivate := &setNode{set: ChunkSet{Shared: shared}}, &setNode{set: ChunkSet{Shared: shared}}, &setNode{set: ChunkSet{Shared: &Generations{}}}
		firstUsed := map[*Index]bool{}
		var stream []Chunk
		completions, adopted := 0, 0
		for step := 0; step < 400; step++ {
			g := min(step/60+r.Intn(3)-1, len(gens)-1) // drift toward newer generations
			g = max(g, 0)
			from := gens
			if r.Intn(12) == 0 {
				from = recut
			}
			c := from[g][r.Intn(len(from[g]))]
			prev := got.cur
			wh, ws := ref.onChunk(c)
			gh, gs := got.onChunk(c)
			if gh != wh || gs != ws {
				t.Fatalf("seed %d step %d: chunk %d/%d of %d: held %v stale %v, reference %v %v",
					seed, step, c.IndexID, c.Num, c.Total, gh, gs, wh, ws)
			}
			if !reflect.DeepEqual(got.cur, ref.cur) {
				t.Fatalf("seed %d step %d: index in use %+v, reference %+v", seed, step, got.cur, ref.cur)
			}
			if got.cur != prev {
				completions++
			}
			first.onChunk(c)
			if !reflect.DeepEqual(first.cur, got.cur) {
				t.Fatalf("seed %d step %d: shared index in use %+v, private %+v", seed, step, first.cur, got.cur)
			}
			firstUsed[first.cur] = true
			if stream = append(stream, c); len(stream) > 5 {
				lc, prevLate := stream[len(stream)-6], late.cur
				late.onChunk(lc)
				latePrivate.onChunk(lc)
				if !reflect.DeepEqual(late.cur, latePrivate.cur) {
					t.Fatalf("seed %d step %d: late shared index %+v, private %+v", seed, step, late.cur, latePrivate.cur)
				}
				if late.cur != prevLate && firstUsed[late.cur] {
					adopted++
				}
			}
			keys := make([]uint32, 0, len(ref.held))
			for k := range ref.held {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if len(keys) != len(got.set.chunks) {
				t.Fatalf("seed %d step %d: %d chunks held, reference %d", seed, step, len(got.set.chunks), len(keys))
			}
			for i, k := range keys {
				if c := got.set.chunks[i]; chunkKey(c.IndexID, c.Num) != k || !reflect.DeepEqual(c, ref.held[k]) {
					t.Fatalf("seed %d step %d: chunk %d of the set is %d/%d, reference key %#x", seed, step, i, c.IndexID, c.Num, k)
				}
			}
		}
		if completions < 2 || adopted < 1 {
			t.Fatalf("seed %d: %d indexes used, %d adopted from the network; the stream proves nothing", seed, completions, adopted)
		}
	}
}

// TestSharedGenerationAllocsZero: a warm node — its chunk array grown
// by an earlier generation — that assembles a generation another node
// of its network completed first adopts that node's *Index, and neither
// holds chunks nor assembles at any allocation.
func TestSharedGenerationAllocsZero(t *testing.T) {
	owners := make([]netsim.NodeID, 60)
	for i := range owners {
		owners[i] = netsim.NodeID(i % 7)
	}
	gen1, gen2 := New(1, 0, owners).Chunks(chunkEntries), New(2, 0, owners[:50]).Chunks(chunkEntries)
	gens := &Generations{}
	a, b := ChunkSet{Shared: gens}, ChunkSet{Shared: gens}
	var built *Index
	for _, c := range gen2 {
		a.Insert(c)
		built = a.Complete(2, c.Total)
	}
	if built == nil {
		t.Fatal("generation 2 never completed")
	}
	for _, c := range gen1 { // b's array grows here
		b.Insert(c)
	}
	var got *Index
	if allocs := testing.AllocsPerRun(100, func() {
		b.DropBefore(2)
		for _, c := range gen2 {
			b.Insert(c)
			got = b.Complete(2, c.Total)
		}
		b.Clear()
		for _, c := range gen1 {
			b.Insert(c)
		}
	}); allocs != 0 {
		t.Fatalf("a warm node assembling a shared generation allocates %v objects, want 0", allocs)
	}
	if got != built {
		t.Fatalf("the warm node assembled %p, want the network's %p", got, built)
	}
}
