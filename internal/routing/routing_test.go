package routing

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// sortedIDs lists the neighbors nt tracks in ascending order.
func sortedIDs(nt *NeighborTable) []netsim.NodeID {
	ids := slices.Clone(nt.Tracked())
	slices.Sort(ids)
	return ids
}

func TestNeighborTableQualityFromGaps(t *testing.T) {
	var nt NeighborTable
	nt.init(8, 0)
	// Hear seq 1,2,4,5: one gap of one → 4 received, 1 missed.
	for _, s := range []uint32{1, 2, 4, 5} {
		nt.Observe(3, s, 0)
	}
	// 4 received, 1 missed, +2 pessimistic prior → 4/7.
	q := nt.Quality(3)
	if q < 0.570 || q > 0.572 {
		t.Fatalf("quality = %f, want 4/7", q)
	}
}

func TestNeighborTableReorderTolerated(t *testing.T) {
	var nt NeighborTable
	nt.init(8, 0)
	for _, s := range []uint32{1, 3, 2, 4} {
		nt.Observe(3, s, 0)
	}
	// Gap 1→3 counts one miss; the late 2 still counts as received:
	// 4 received, 1 missed, +2 prior → 4/7.
	q := nt.Quality(3)
	if q < 0.570 || q > 0.572 {
		t.Fatalf("quality = %f, want 4/7", q)
	}
}

func TestNeighborTableCapacityEviction(t *testing.T) {
	var nt NeighborTable
	nt.init(4, 0)
	for i := 0; i < 6; i++ {
		nt.Observe(netsim.NodeID(i), 1, netsim.Time(i))
	}
	if nt.Len() > 4 {
		t.Fatalf("table grew to %d, cap 4", nt.Len())
	}
	// The stalest (earliest-heard) entries should have been evicted.
	if nt.Contains(0) {
		t.Fatal("stalest entry not evicted")
	}
	if !nt.Contains(5) {
		t.Fatal("newest entry missing")
	}
}

// A full table always admits a newcomer, whatever the eviction window:
// the stalest entry goes, and among equally stale ones the one inserted
// first — also when every entry was heard at this very instant.
func TestNeighborTableFullAlwaysAdmits(t *testing.T) {
	for _, evictAfter := range []netsim.Time{0, 90 * netsim.Second} {
		var nt NeighborTable
		nt.init(3, evictAfter)
		nt.Observe(7, 1, 100)
		nt.Observe(5, 1, 100)
		nt.Observe(9, 1, 100)
		nt.Observe(4, 1, 100) // all four heard at t=100: 7 was inserted first
		if ids := sortedIDs(&nt); !slices.Equal(ids, []netsim.NodeID{4, 5, 9}) {
			t.Fatalf("evictAfter %d: tie evicted the wrong entry, table %v", evictAfter, ids)
		}
		nt.Observe(5, 2, 200)
		nt.Observe(4, 2, 200) // 9 is now the stalest, though inserted after 5
		nt.Observe(6, 1, 200)
		if ids := sortedIDs(&nt); !slices.Equal(ids, []netsim.NodeID{4, 5, 6}) {
			t.Fatalf("evictAfter %d: stalest entry not evicted, table %v", evictAfter, ids)
		}
	}
}

func TestNeighborTableExpire(t *testing.T) {
	var nt NeighborTable
	nt.init(8, 100)
	nt.Observe(1, 1, 0)
	nt.Observe(2, 1, 90)
	nt.Expire(150)
	if nt.Contains(1) {
		t.Fatal("stale neighbor not expired")
	}
	if !nt.Contains(2) {
		t.Fatal("fresh neighbor expired")
	}
}

// The key array and the entry array must move together: dropping an
// entry from the middle (Expire) or the front (eviction) may not hand a
// surviving neighbor another neighbor's counters.
func TestNeighborTableKeysFollowEntries(t *testing.T) {
	var nt NeighborTable
	nt.init(3, 100)
	for s := uint32(1); s <= 4; s++ {
		nt.Observe(10, s, 50) // 4/6
	}
	nt.Observe(20, 1, 0) // stale by t=150
	nt.Observe(30, 1, 60)
	nt.Observe(30, 3, 60) // 2 received, 1 missed → 2/5
	q10, q30 := nt.Quality(10), nt.Quality(30)
	nt.Expire(150)
	if nt.Contains(20) || nt.Len() != 2 {
		t.Fatalf("Expire kept the stale middle entry (len %d)", nt.Len())
	}
	if nt.Quality(10) != q10 || nt.Quality(30) != q30 {
		t.Fatalf("qualities moved across Expire: %v %v, want %v %v",
			nt.Quality(10), nt.Quality(30), q10, q30)
	}
	nt.Observe(40, 1, 70)
	nt.Observe(50, 1, 80) // full: evicts 10, the stalest
	if nt.Contains(10) || nt.Quality(30) != q30 || nt.Quality(40) != 1.0/3 || nt.Quality(50) != 1.0/3 {
		t.Fatalf("after eviction: ids %v, q30 %v q40 %v q50 %v",
			sortedIDs(&nt), nt.Quality(30), nt.Quality(40), nt.Quality(50))
	}
	if best := nt.Best(nil, 1); len(best) != 1 || best[0].ID != 30 {
		t.Fatalf("Best(1) = %+v, want node 30", best)
	}
}

func TestNeighborTableBestSorted(t *testing.T) {
	var nt NeighborTable
	nt.init(8, 0)
	// Node 1: perfect. Node 2: 50%.
	for s := uint32(1); s <= 10; s++ {
		nt.Observe(1, s, 0)
	}
	for _, s := range []uint32{2, 4, 6, 8, 10} {
		nt.Observe(2, s, 0)
	}
	best := nt.Best(nil, 12)
	if len(best) != 2 || best[0].ID != 1 || best[1].ID != 2 {
		t.Fatalf("best = %+v", best)
	}
	if best[0].Quality <= best[1].Quality {
		t.Fatal("best not sorted by quality")
	}
	if got := nt.Best(nil, 1); len(got) != 1 {
		t.Fatalf("Best(1) returned %d entries", len(got))
	}
}

func TestNeighborTableWindowing(t *testing.T) {
	var nt NeighborTable
	nt.init(4, 0)
	// Long perfect run, then a bad patch: quality must drop below a
	// pure all-time average.
	for s := uint32(1); s <= 60; s++ {
		nt.Observe(7, s, 0)
	}
	// Now lose 3 of every 4.
	for s := uint32(64); s <= 160; s += 4 {
		nt.Observe(7, s, 0)
	}
	q := nt.Quality(7)
	if q > 0.6 {
		t.Fatalf("quality = %f; windowing should track the bad patch", q)
	}
}

func TestDescendantSetRecordAndNextHop(t *testing.T) {
	d := newDescendantSet(8)
	d.Record(9, 3, 0)
	d.Record(10, 3, 1)
	d.Record(11, 4, 2)
	if hop, ok := d.NextHop(10); !ok || hop != 3 {
		t.Fatalf("NextHop(10) = %d,%v", hop, ok)
	}
	if _, ok := d.NextHop(99); ok {
		t.Fatal("unknown descendant resolved")
	}
	d.Forget(10)
	if _, ok := d.NextHop(10); ok {
		t.Fatal("forgotten descendant still resolves")
	}
	// Forgetting the middle entry must not re-key its neighbours.
	if hop, ok := d.NextHop(9); !ok || hop != 3 {
		t.Fatalf("NextHop(9) = %d,%v after Forget(10)", hop, ok)
	}
	if hop, ok := d.NextHop(11); !ok || hop != 4 {
		t.Fatalf("NextHop(11) = %d,%v after Forget(10)", hop, ok)
	}
}

func TestDescendantSetBounded(t *testing.T) {
	d := newDescendantSet(3)
	for i := 0; i < 10; i++ {
		d.Record(netsim.NodeID(i), 1, netsim.Time(i))
	}
	if len(d.entries) != 3 {
		t.Fatalf("len = %d, want 3", len(d.entries))
	}
	// Most recent three survive.
	for _, id := range []netsim.NodeID{7, 8, 9} {
		if _, ok := d.NextHop(id); !ok {
			t.Fatalf("recent descendant %d evicted", id)
		}
	}
}

// Property: the descendant set never exceeds its capacity and always
// resolves the most recently recorded origin.
func TestDescendantSetCapacityProperty(t *testing.T) {
	f := func(origins []uint8, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		d := newDescendantSet(capacity)
		for i, o := range origins {
			d.Record(netsim.NodeID(o), 1, netsim.Time(i))
			if len(d.entries) > capacity {
				return false
			}
			if _, ok := d.NextHop(netsim.NodeID(o)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// treeApp wires a Tree directly to the simulator for protocol tests.
type treeApp struct {
	tree *Tree
	base bool
}

const beaconTimer = 1

func (a *treeApp) Init(api *netsim.NodeAPI) {
	a.tree = new(Tree)
	a.tree.Init(api, a.base)
	a.tree.Start(beaconTimer)
}
func (a *treeApp) Receive(p *netsim.Packet) { a.tree.Observe(p) }
func (a *treeApp) Snoop(p *netsim.Packet)   { a.tree.Observe(p) }
func (a *treeApp) Timer(id int) {
	if id == beaconTimer {
		a.tree.OnTimer()
	}
}

func buildTreeNetwork(topo *netsim.Topology, seed int64) ([]*treeApp, *netsim.Simulator) {
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	apps := make([]*treeApp, topo.N)
	for i := range apps {
		apps[i] = &treeApp{base: i == 0}
		net.Attach(netsim.NodeID(i), apps[i])
	}
	net.Start()
	return apps, sim
}

func TestTreeFormsOnRealTopology(t *testing.T) {
	topo := netsim.UniformTopology(30, 6, 3.2, 21)
	apps, sim := buildTreeNetwork(topo, 21)
	sim.Run(5 * netsim.Minute)
	joined := 0
	for i := 1; i < topo.N; i++ {
		if apps[i].tree.HasRoute() {
			joined++
		}
	}
	if joined < topo.N-3 {
		t.Fatalf("only %d/%d nodes joined the tree", joined, topo.N-1)
	}
}

func TestTreeAcyclicAndRooted(t *testing.T) {
	topo := netsim.UniformTopology(40, 7, 3.2, 22)
	apps, sim := buildTreeNetwork(topo, 22)
	sim.Run(5 * netsim.Minute)
	// Follow parent pointers from each node; must reach the base
	// without revisiting a node.
	for i := 1; i < topo.N; i++ {
		if !apps[i].tree.HasRoute() {
			continue
		}
		seen := map[netsim.NodeID]bool{}
		cur := netsim.NodeID(i)
		for cur != 0 {
			if seen[cur] {
				t.Fatalf("cycle through node %d", cur)
			}
			seen[cur] = true
			cur = apps[cur].tree.Parent()
			if cur == netsim.NoNode {
				t.Fatalf("node %d path dead-ends", i)
			}
		}
	}
}

func TestTreeIsMultihop(t *testing.T) {
	// On a 40-node topology with limited radio range the tree must be
	// genuinely multihop, not a star.
	topo := netsim.UniformTopology(40, 7, 3.2, 23)
	apps, sim := buildTreeNetwork(topo, 23)
	sim.Run(5 * netsim.Minute)
	deep := 0
	for i := 1; i < topo.N; i++ {
		tr := apps[i].tree
		if tr.HasRoute() && tr.Parent() != 0 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("tree collapsed to a star; expected multihop paths")
	}
}

func TestTreePathsTerminateAtBase(t *testing.T) {
	// Parent estimates drift between beacons, so strict per-edge
	// monotonicity is not an invariant; bounded-length termination of
	// every parent path is.
	topo := netsim.UniformTopology(40, 7, 3.2, 24)
	apps, sim := buildTreeNetwork(topo, 24)
	sim.Run(5 * netsim.Minute)
	for i := 1; i < topo.N; i++ {
		tr := apps[i].tree
		if !tr.HasRoute() {
			continue
		}
		if tr.etx < 1 {
			t.Fatalf("node %d ETX %f below one hop", i, tr.etx)
		}
		cur, steps := netsim.NodeID(i), 0
		for cur != 0 {
			cur = apps[cur].tree.Parent()
			steps++
			if cur == netsim.NoNode || steps > topo.N {
				t.Fatalf("node %d parent path does not reach base (steps=%d)", i, steps)
			}
		}
	}
}

func TestTreeReformsAfterParentDeath(t *testing.T) {
	// A 4-node diamond: 0-1, 0-2, 1-3, 2-3. Kill 3's parent; after a
	// few beacon rounds 3 must re-parent through the other branch.
	topo := netsim.NewTopology(4)
	topo.Pos = make([]netsim.Point, 4)
	set := func(i, j netsim.NodeID, q float64) {
		topo.SetQuality(i, j, q)
		topo.SetQuality(j, i, q)
	}
	set(0, 1, 0.7)
	set(0, 2, 0.6)
	set(1, 3, 0.7)
	set(2, 3, 0.6)
	sim := netsim.NewSimulator(7)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	apps := make([]*treeApp, 4)
	for i := range apps {
		apps[i] = &treeApp{base: i == 0}
		net.Attach(netsim.NodeID(i), apps[i])
	}
	net.Start()
	sim.Run(3 * netsim.Minute)
	first := apps[3].tree.Parent()
	if first == netsim.NoNode {
		t.Fatal("node 3 never joined")
	}
	net.Kill(first)
	sim.Run(sim.Now() + 6*netsim.Minute)
	second := apps[3].tree.Parent()
	if second == first {
		t.Fatalf("node 3 still routes via dead parent %d", first)
	}
	if second == netsim.NoNode {
		t.Fatal("node 3 lost its route entirely")
	}
}

func TestBaseNeverPicksParent(t *testing.T) {
	topo := netsim.UniformTopology(10, 4, 3.2, 25)
	apps, sim := buildTreeNetwork(topo, 25)
	sim.Run(2 * netsim.Minute)
	if apps[0].tree.Parent() != netsim.NoNode {
		t.Fatal("basestation picked a parent")
	}
	if apps[0].tree.etx != 0 {
		t.Fatalf("base ETX = %f", apps[0].tree.etx)
	}
}

// Cycle detection must only trust a parent's own beacon advertisement.
// On forwarded traffic OriginParent describes the packet's origin, not
// the link-layer sender, so a parent relaying a grandchild's summary
// (Src=parent, OriginParent=me) is normal traffic — not a cycle.
func TestCycleDetectionIgnoresForwardedTraffic(t *testing.T) {
	topo := netsim.NewTopology(4)
	topo.Pos = make([]netsim.Point, 4)
	for i := range topo.Pos {
		topo.Pos[i] = netsim.Point{X: float64(i)}
	}
	for i := 0; i+1 < 4; i++ {
		topo.SetQuality(netsim.NodeID(i), netsim.NodeID(i+1), 1.0)
		topo.SetQuality(netsim.NodeID(i+1), netsim.NodeID(i), 1.0)
	}
	apps, sim := buildTreeNetwork(topo, 31)
	sim.Run(2 * netsim.Minute)
	tr := apps[2].tree
	if tr.Parent() != 1 {
		t.Fatalf("node 2 parent = %d, want 1", tr.Parent())
	}
	// Node 1 forwards node 3's summary upward: Src=1, OriginParent=2.
	tr.Observe(&netsim.Packet{
		Class:        metrics.Summary,
		Src:          1,
		Origin:       3,
		OriginParent: 2,
	})
	if tr.Parent() != 1 {
		t.Fatal("node 2 detached on a forwarded summary: cycle check misfired")
	}
	// But node 1's own beacon claiming node 2 as its parent IS a cycle.
	tr.Observe(&netsim.Packet{
		Class:        metrics.Beacon,
		Src:          1,
		Origin:       1,
		OriginParent: 2,
	})
	if tr.Parent() != netsim.NoNode {
		t.Fatal("node 2 kept its parent despite a beacon-advertised cycle")
	}
}

// treeMeter is an App that measures the bytes a Tree and its Init
// allocate. It keeps the Tree, so the struct itself is on the heap and
// counted, as it is inside a node application.
type treeMeter struct {
	tree  *Tree
	bytes uint64
}

func (m *treeMeter) Init(api *netsim.NodeAPI) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.tree = new(Tree)
	m.tree.Init(api, false)
	runtime.ReadMemStats(&after)
	m.bytes = after.TotalAlloc - before.TotalAlloc
}
func (*treeMeter) Receive(*netsim.Packet) {}
func (*treeMeter) Snoop(*netsim.Packet)   {}
func (*treeMeter) Timer(int)              {}

// TestTreeFootprintIndependentOfN: a node's routing state costs the same
// bytes in a 100-node network and a 4000-node one (DESIGN.md §12, "no
// per-node state sized by the network"). On the parent commit this test
// fails with 2 960 B against 38 816 B — outEst/outSet were
// indexed by every node ID. The count itself is pinned: 1 872 B — the
// Tree struct with its descendant set by value (344 B, in the 352-byte
// size class), the neighbor table's and descendant set's 32-entry
// arrays (512 B each), the ids of both and the outbound estimates'
// (192 and 256 B; Carve makes them for a lone tree), and the network's
// beacon free list (48 B), which the first tree on a network makes
// (netsim.Pool). It was 1 856 B while the descendant set was an object
// of its own and the free list a field of the Tree, 1 888 B while the
// struct
// held its own copy of the parent-quality floor (328 bytes in the
// 352-byte size class), 1 776 B before the table's 128-byte inline id index
// (the struct was 240 B), and 2 272 B when a link-estimator entry was
// 32 bytes and the table an object of its own.
func TestTreeFootprintIndependentOfN(t *testing.T) {
	newTreeBytes := func(n int) uint64 {
		// No links and no constructor bound (netsim.MaxNodes).
		topo := &netsim.Topology{N: n, Pos: make([]netsim.Point, n)}
		// The smallest of three, so a stray runtime allocation between
		// the two readings cannot count.
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			net := netsim.NewNetwork(netsim.NewSimulator(1), topo, metrics.NewCounters(), netsim.DefaultParams())
			m := &treeMeter{}
			net.Attach(1, m)
			net.Start()
			best = min(best, m.bytes)
		}
		return best
	}
	small, large := newTreeBytes(100), newTreeBytes(4000)
	if small != large {
		t.Fatalf("a Tree allocates %d B in a 100-node network, %d B in a 4000-node one", small, large)
	}
	if small != 1872 {
		t.Fatalf("a Tree allocates %d B, want 1872", small)
	}
}

// TestBeaconZeroAllocs: a steady-state beacon allocates nothing
// (DESIGN.md §12). The frame is copied into the sender's queue ring, the
// top-n selection fills the beacon's own array, and the *Beacon itself
// comes off the network's free list of beacons, where its last delivery
// put the one broadcast before it.
func TestBeaconZeroAllocs(t *testing.T) {
	topo := netsim.NewTopology(2)
	topo.Pos = make([]netsim.Point, 2)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	app, heard := &treeApp{}, &beaconSink{}
	net.Attach(0, app)
	net.Attach(1, heard)
	net.Start()
	for id := netsim.NodeID(10); id < 22; id++ { // more neighbours than a beacon carries
		app.tree.Neighbors.Observe(id, 1, 0)
	}
	beacon := func() {
		app.tree.broadcastBeacon()
		sim.Run(sim.Now() + 200*netsim.Millisecond) // backoff + airtime; the fake neighbours expire after 90 s
	}
	beacon() // warm the queue ring, the MAC pools and the free list
	if allocs := testing.AllocsPerRun(100, beacon); allocs != 0 {
		t.Fatalf("one broadcastBeacon allocates %v objects, want 0", allocs)
	}
	if heard.beacons != 102 || heard.estimates != 8 {
		t.Fatalf("heard %d beacons, the last with %d estimates; want 102 with 8",
			heard.beacons, heard.estimates)
	}
}

// beaconSink counts the beacons it receives.
type beaconSink struct{ beacons, estimates int }

func (*beaconSink) Init(*netsim.NodeAPI) {}
func (s *beaconSink) Receive(p *netsim.Packet) {
	s.beacons++
	s.estimates = len(p.Payload.(*Beacon).Estimates)
}
func (*beaconSink) Snoop(*netsim.Packet) {}
func (*beaconSink) Timer(int)            {}
