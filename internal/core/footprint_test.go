package core

import (
	"runtime"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// initMeter is an App that measures the bytes NewNode and its node's
// first Init allocate.
type initMeter struct {
	node  *Node
	bytes uint64
}

func (m *initMeter) Init(api *netsim.NodeAPI) {
	cfg, stats := DefaultConfig(0, 100), &RunStats{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.node = NewNode(cfg, stats, idSampler, netsim.Minute)
	m.node.Init(api)
	runtime.ReadMemStats(&after)
	m.bytes = after.TotalAlloc - before.TotalAlloc
}
func (m *initMeter) Receive(p *netsim.Packet) { m.node.Receive(p) }
func (m *initMeter) Snoop(p *netsim.Packet)   { m.node.Snoop(p) }
func (m *initMeter) Timer(id int)             { m.node.Timer(id) }

// linklessTopology is an n-node topology with no links and no
// constructor bound (netsim.MaxNodes).
func linklessTopology(n int) *netsim.Topology {
	return &netsim.Topology{N: n, Pos: make([]netsim.Point, n)}
}

// nodeInitBytes returns what NewNode and Node.Init allocate for node 2
// of an n-node network with no links, node 1 having booted first: what
// is the network's — its free lists and the first block of timer tasks
// — node 1 made. The smallest of three fresh networks, so a stray
// runtime allocation between the two readings cannot count.
func nodeInitBytes(n int) uint64 {
	topo := linklessTopology(n)
	best := ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		net := netsim.NewNetwork(netsim.NewSimulator(1), topo, metrics.NewCounters(), netsim.DefaultParams())
		net.Attach(1, NewNode(DefaultConfig(0, 100), &RunStats{}, idSampler, netsim.Minute))
		m := &initMeter{}
		net.Attach(2, m)
		net.Start()
		best = min(best, m.bytes)
	}
	return best
}

// TestNodeFootprintIndependentOfN is the machine-independent guard of
// DESIGN.md §12's "no per-node state sized by the network": a mote
// boots into the same bytes whether 100 or 4000 others exist, to the
// byte. On the parent commit this test fails with 105 312 B at N = 100
// against 236 784 B at N = 4000: the eager flash ring (98 304 B) in
// both, the per-owner batch array and the tree's per-node link
// estimates in the difference. The count itself is pinned: 3 848 B for
// NewNode and Init together — the 1 688-byte Node in the 1 792-byte
// size class, holding its tree, Trickles, descendant set and buffer
// headers by value; the recent-readings ring (240 B) and two one-entry
// pointer arrays (24 B); the tree's tables in four arrays
// (routing.Carve, 1 472 B); and the simulator's event heap doubling to
// hold the node's three timers (320 B). It was 2 568 B for Init alone
// while Init allocated the Trickles, the descendant set and the two
// buffers one by one and the tree's tables in six arrays, and before
// that the tree's struct, which the Node holds by value since it was
// 2 808 B (the 240-byte Tree object Init allocated then;
// routing.TestTreeFootprintIndependentOfN counts the struct with its
// tables). It was 3 040 B when the chunk store, the assembler and each
// Trickle's items were maps, and 3 536 B when the tree's link-estimator
// entries were 32 bytes each.
func TestNodeFootprintIndependentOfN(t *testing.T) {
	small, large := nodeInitBytes(100), nodeInitBytes(4000)
	if small != large {
		t.Fatalf("a booting mote allocates %d B in a 100-node network, %d B in a 4000-node one", small, large)
	}
	if small != 3848 {
		t.Fatalf("a booting mote allocates %d B, want 3848; it holds no data yet", small)
	}
}
