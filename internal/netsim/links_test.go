package netsim

import (
	"math"
	"runtime"
	"testing"

	"scoop/internal/metrics"
)

// TestOutLinksBuiltOnce verifies the lists are views of the one link
// array, not rebuilt or copied per call — the hot transmit path reads
// them on every frame — and that SetQuality's edits show at once:
// there is no cached copy left to go stale.
func TestOutLinksBuiltOnce(t *testing.T) {
	topo := GridTopology(16, 2.5, 5)
	a := topo.OutLinks(1)
	b := topo.OutLinks(1)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("OutLinks rebuilt between calls (lists must be views)")
	}
	dst := a[0].Dst
	n := len(a)
	topo.SetQuality(1, dst, 0)
	if got := topo.OutLinks(1); len(got) != n-1 || topo.Quality(1, dst) != 0 {
		t.Fatalf("after removing 1→%d: %d links, want %d", dst, len(got), n-1)
	}
	topo.SetQuality(1, dst, 0.5)
	if got := topo.OutLinks(1); len(got) != n || got[0] != (Link{dst, 0.5}) {
		t.Fatalf("after restoring 1→%d: %v", dst, got)
	}
}

// TestScaleTierTopologies exercises the lifted node bound: topologies
// up to MaxNodes build, stay connected, and keep bounded degree (the
// generators hold radio range constant as area grows, so per-node
// neighbourhoods — and therefore per-event cost — stay O(1) in N).
func TestScaleTierTopologies(t *testing.T) {
	for _, n := range []int{250, 1000} {
		topo := GridTopology(n, 2.5, 9)
		if topo.N != n {
			t.Fatalf("N = %d, want %d", topo.N, n)
		}
		maxDeg := 0
		for i := 0; i < n; i++ {
			if d := len(topo.OutLinks(NodeID(i))); d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg == 0 || maxDeg > 60 {
			t.Fatalf("n=%d: max degree %d outside (0,60] — radio range no longer local", n, maxDeg)
		}
	}
}

// inertApp does nothing: the footprint test wants the network's own
// bytes, not a protocol's.
type inertApp struct{}

func (inertApp) Init(*NodeAPI)   {}
func (inertApp) Receive(*Packet) {}
func (inertApp) Snoop(*Packet)   {}
func (inertApp) Timer(int)       {}

// TestNetworkFootprintLinearInLinks is the machine-independent guard of
// DESIGN.md §12's "no per-node state sized by the network" for the
// radio: on the grid, where degree is bounded, doubling the nodes may
// at most double (2.5× with slack for the edge effect and size classes)
// the bytes NewNetwork + Attach + Start allocate — per-link tables, not
// N×N ones. On the parent commit this test fails with a ratio of 3.48
// (21 624 624 B at N = 1000, 75 240 544 B at N = 2000: linkScale and
// qualFlat were N×N float64 arrays).
func TestNetworkFootprintLinearInLinks(t *testing.T) {
	// GridTopology's placement without its MaxNodes bound.
	grid := func(n int) *Topology {
		topo := &Topology{N: n, Pos: make([]Point, n)}
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		for i := range topo.Pos {
			topo.Pos[i] = Point{X: float64(i % cols), Y: float64(i / cols)}
		}
		fillLinks(topo, 2.5, newTestRand(9), nil)
		return topo
	}
	networkBytes := func(topo *Topology) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
		for i := 0; i < topo.N; i++ {
			net.Attach(NodeID(i), inertApp{})
		}
		net.Start()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(net)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := networkBytes(grid(1000)), networkBytes(grid(2000))
	t.Logf("network set-up allocates %d B at N=1000, %d B at N=2000", small, large)
	if ratio := float64(large) / float64(small); ratio > 2.5 {
		t.Fatalf("network set-up allocates %d B at N=1000 and %d B at N=2000: ×%.2f, want ≤ ×2.5 (linear in links)",
			small, large, ratio)
	}
}
