package netsim

import (
	"reflect"
	"testing"

	"scoop/internal/metrics"
)

// TestPartitionBalancedStripes checks the two structural guarantees of
// PartitionTopology on a realistic layout: region sizes differ by at
// most one, and regions are contiguous stripes of the X-sorted node
// order (region index is non-decreasing along the sort).
func TestPartitionBalancedStripes(t *testing.T) {
	topo := UniformTopology(63, 8, 3.5, 7)
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		p := PartitionTopology(topo, k)
		if p.K != k {
			t.Fatalf("k=%d: partition kept K=%d", k, p.K)
		}
		total := 0
		lo, hi := topo.N, 0
		for r := 0; r < k; r++ {
			sz := p.Size(r)
			total += sz
			if sz < lo {
				lo = sz
			}
			if sz > hi {
				hi = sz
			}
		}
		if total != topo.N {
			t.Fatalf("k=%d: region sizes sum to %d, want %d", k, total, topo.N)
		}
		if hi-lo > 1 {
			t.Fatalf("k=%d: unbalanced stripes: min %d, max %d", k, lo, hi)
		}
		// Contiguity: walk nodes in (X, Y, id) order; the region index
		// must never decrease.
		order := make([]int, topo.N)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				a, b := topo.Pos[order[i]], topo.Pos[order[j]]
				if b.X < a.X || (b.X == a.X && b.Y < a.Y) ||
					(b.X == a.X && b.Y == a.Y && order[j] < order[i]) {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		prev := 0
		for _, id := range order {
			r := p.RegionOf(NodeID(id))
			if r < prev {
				t.Fatalf("k=%d: region %d follows %d in X-sorted order (stripes not contiguous)", k, r, prev)
			}
			prev = r
		}
	}
}

// TestPartitionClamps pins the degenerate inputs: k below 1 collapses
// to one region, k above N caps at one node per region, and a
// single-node topology partitions without panicking.
func TestPartitionClamps(t *testing.T) {
	topo := UniformTopology(5, 3, 3.5, 1)
	if p := PartitionTopology(topo, 0); p.K != 1 || p.Size(0) != 5 {
		t.Fatalf("k=0: got K=%d size0=%d, want one region of 5", p.K, p.Size(0))
	}
	if p := PartitionTopology(topo, -3); p.K != 1 {
		t.Fatalf("k=-3: got K=%d, want 1", p.K)
	}
	p := PartitionTopology(topo, 12)
	if p.K != 5 {
		t.Fatalf("k=12 on 5 nodes: got K=%d, want 5", p.K)
	}
	for r := 0; r < p.K; r++ {
		if p.Size(r) != 1 {
			t.Fatalf("k>N: region %d has %d nodes, want 1", r, p.Size(r))
		}
	}
	one := NewTopology(1)
	one.Pos = []Point{{0, 0}}
	if p := PartitionTopology(one, 4); p.K != 1 || p.RegionOf(0) != 0 {
		t.Fatalf("single-node topology: K=%d region(0)=%d", p.K, p.RegionOf(0))
	}
}

// TestPartitionCoincidentPositions: all nodes at the same point (the
// worst case for a spatial sort) must still split deterministically —
// the (X, Y, id) order degrades to pure ID order.
func TestPartitionCoincidentPositions(t *testing.T) {
	topo := NewTopology(6)
	topo.Pos = make([]Point, 6)
	p := PartitionTopology(topo, 3)
	for i := 0; i < 6; i++ {
		want := i / 2 // ID-ordered stripes of two
		if got := p.RegionOf(NodeID(i)); got != want {
			t.Fatalf("coincident positions: node %d in region %d, want %d", i, got, want)
		}
	}
}

// TestPartitionDeterministic: the node→region map is a pure function
// of the topology — rebuilding it yields identical assignments.
func TestPartitionDeterministic(t *testing.T) {
	topo := UniformTopology(40, 7, 3.5, 11)
	a := PartitionTopology(topo, 4)
	b := PartitionTopology(topo, 4)
	if !reflect.DeepEqual(a.region, b.region) {
		t.Fatal("same topology, different partitions")
	}
}

// TestBoundaryNodes builds a 4-node chain split down the middle and
// checks that exactly the link-crossing nodes are reported, in ID
// order.
func TestBoundaryNodes(t *testing.T) {
	topo := NewTopology(4)
	topo.Pos = []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	topo.SetQuality(1, 2, 1)
	topo.SetQuality(2, 1, 1)
	topo.SetQuality(2, 3, 1)
	topo.SetQuality(3, 2, 1)
	p := PartitionTopology(topo, 2)
	got := p.BoundaryNodes(topo)
	want := []NodeID{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary nodes = %v, want %v", got, want)
	}
	// One-directional audibility still makes both endpoints boundary.
	topo.SetQuality(2, 1, 0)
	got = p.BoundaryNodes(topo)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("asymmetric link: boundary nodes = %v, want %v", got, want)
	}
	// An isolated split (no cross links) has no boundary nodes.
	topo.SetQuality(1, 2, 0)
	topo.SetQuality(2, 1, 0)
	if got := p.BoundaryNodes(topo); len(got) != 0 {
		t.Fatalf("severed chain: boundary nodes = %v, want none", got)
	}
}

// TestLookaheadWindow pins the window derivation: the radio's fixed
// per-frame overhead, floored at one millisecond, independent of
// everything else in Params.
func TestLookaheadWindow(t *testing.T) {
	p := DefaultParams()
	if w := LookaheadWindow(p); w != p.TxOverhead {
		t.Fatalf("default window = %d, want TxOverhead %d", w, p.TxOverhead)
	}
	p.TxOverhead = 0
	if w := LookaheadWindow(p); w != Millisecond {
		t.Fatalf("zero-overhead window = %d, want the 1ms floor", w)
	}
	p.TxOverhead = 3 * Millisecond
	if w := LookaheadWindow(p); w != 3*Millisecond {
		t.Fatalf("window = %d, want 3ms", w)
	}
}

// TestGridMath checks the visibility-grid helpers across edges:
// gridFloor is the largest multiple of w at or before t, gridNext the
// first strictly after.
func TestGridMath(t *testing.T) {
	const w = 8 * Millisecond
	cases := []struct{ t, floor, next Time }{
		{0, 0, 8},
		{1, 0, 8},
		{7, 0, 8},
		{8, 8, 16},
		{9, 8, 16},
		{16, 16, 24},
		{8001, 8000, 8008},
	}
	for _, c := range cases {
		if got := gridFloor(c.t, w); got != c.floor {
			t.Errorf("gridFloor(%d) = %d, want %d", c.t, got, c.floor)
		}
		if got := gridNext(c.t, w); got != c.next {
			t.Errorf("gridNext(%d) = %d, want %d", c.t, got, c.next)
		}
	}
}

// edgeApp drives the window-edge delivery test: node 0 unicasts to a
// fixed destination at each listed time; every node logs (arrival
// time, packet size) for exact comparison across engines.
type edgeApp struct {
	api     *NodeAPI
	sendAt  []Time
	dst     NodeID
	arrived *[]arrival
}

type arrival struct {
	at   Time
	node NodeID
	size int
}

func (e *edgeApp) Init(api *NodeAPI) {
	e.api = api
	for i := range e.sendAt {
		api.SetTimer(i, e.sendAt[i])
	}
}

func (e *edgeApp) Timer(id int) {
	e.api.Send(&Packet{Class: metrics.Data, Dst: e.dst, Size: 10 + id}, nil)
}

func (e *edgeApp) Receive(p *Packet) {
	*e.arrived = append(*e.arrived, arrival{at: e.api.Now(), node: e.api.ID(), size: p.Size})
}

func (e *edgeApp) Snoop(*Packet) {}

// TestTwoRegionWindowEdgeDelivery is the sharpest conservative-engine
// edge: cross-region unicasts whose transmissions start just before,
// exactly at, and just after visibility-grid points. The delivery log
// (arrival time, receiver, size) must be identical between the serial
// engine and a 2-region split where sender and receiver are in
// different regions.
func TestTwoRegionWindowEdgeDelivery(t *testing.T) {
	w := LookaheadWindow(DefaultParams())
	// Send times straddling grid edges, plus a pair close enough to
	// serialise behind carrier sense across the region boundary.
	sendAt := []Time{w - 1, w, w + 1, 2*w - 1, 2 * w, 2*w + 1, 10*w - 1, 10 * w, 10*w + 2}
	run := func(regions int) []arrival {
		topo := NewTopology(2)
		topo.Pos = []Point{{0, 0}, {5, 0}}
		topo.SetQuality(0, 1, 1)
		topo.SetQuality(1, 0, 1)
		sim := NewSimulator(9)
		net := NewNetwork(sim, topo, metrics.NewCounters(), DefaultParams())
		if regions > 1 {
			net.SetRegions(regions)
		}
		var log []arrival
		net.Attach(0, &edgeApp{sendAt: sendAt, dst: 1, arrived: &log})
		net.Attach(1, &edgeApp{dst: 0, arrived: &log})
		net.Start()
		if regions > 1 {
			if net.Regions() != regions {
				t.Fatalf("wanted %d regions, got %d", regions, net.Regions())
			}
			if net.RegionOf(0) == net.RegionOf(1) {
				t.Fatal("both nodes landed in one region; the test needs a cross-region link")
			}
		}
		net.Run(Minute)
		return log
	}
	serial := run(1)
	if len(serial) != len(sendAt) {
		t.Fatalf("serial engine delivered %d of %d sends", len(serial), len(sendAt))
	}
	par := run(2)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("cross-region deliveries diverge at window edges:\nserial: %+v\n2-region: %+v", serial, par)
	}
}

// TestSimulatorHaltFreezesClock is the regression test for the latent
// Run edge: Halt() inside an event used to let Run's tail still fling
// the clock forward to `until`, so Now() after a mid-run halt lied
// about how far the simulation had advanced.
func TestSimulatorHaltFreezesClock(t *testing.T) {
	s := NewSimulator(1)
	s.At(10, func() { s.Halt() })
	s.Run(100)
	if s.Now() != 10 {
		t.Fatalf("clock advanced to %d after a halt at 10", s.Now())
	}
	if !s.Halted() {
		t.Fatal("Halted() = false after Halt")
	}
	// A halted simulator stays put even across further Run calls.
	s.Run(200)
	if s.Now() != 10 {
		t.Fatalf("halted clock moved to %d", s.Now())
	}
}
