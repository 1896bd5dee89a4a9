package core

import (
	"runtime"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// initMeter is an App that measures the bytes its node's Init allocates.
type initMeter struct {
	node  *Node
	bytes uint64
}

func (m *initMeter) Init(api *netsim.NodeAPI) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
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

// nodeInitBytes returns what Node.Init allocates for node 1 of an
// n-node network with no links: the smallest of three fresh networks,
// so a stray runtime allocation between the two readings cannot count.
func nodeInitBytes(n int) uint64 {
	topo := linklessTopology(n)
	best := ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		net := netsim.NewNetwork(netsim.NewSimulator(1), topo, metrics.NewCounters(), netsim.DefaultParams())
		m := &initMeter{node: NewNode(DefaultConfig(0, 100), &RunStats{}, idSampler, netsim.Minute)}
		net.Attach(1, m)
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
// estimates in the difference. The count itself is pinned: 3 040 B,
// down from 3 536 B when the tree's link-estimator entries were 32
// bytes each (routing.TestTreeFootprintIndependentOfN has that half,
// and the 16 B its beacon free list added).
func TestNodeFootprintIndependentOfN(t *testing.T) {
	small, large := nodeInitBytes(100), nodeInitBytes(4000)
	if small != large {
		t.Fatalf("Node.Init allocates %d B in a 100-node network, %d B in a 4000-node one", small, large)
	}
	if small != 3040 {
		t.Fatalf("Node.Init allocates %d B, want 3040; a booting mote holds no data yet", small)
	}
}
