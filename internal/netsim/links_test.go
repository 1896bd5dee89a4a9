package netsim

import (
	"math"
	"runtime"
	"testing"

	"scoop/internal/metrics"
)

// TestOutLinksMatchQualityScan pins the determinism contract of the
// cached out-link lists: for every node they must enumerate exactly
// the audible destinations of a fresh Quality-row scan, in ascending
// destination order — the transmit loop draws per-receiver randomness
// in list order, so any deviation silently changes every simulation.
func TestOutLinksMatchQualityScan(t *testing.T) {
	for _, topo := range []*Topology{
		GridTopology(64, 2.5, 7),
		UniformTopology(63, 8, 3.5, 11),
		TestbedTopology(62, 3),
	} {
		for i := 0; i < topo.N; i++ {
			links := topo.OutLinks(NodeID(i))
			k := 0
			for j := 0; j < topo.N; j++ {
				if i == j || topo.Quality[i][j] <= 0 {
					continue
				}
				if k >= len(links) {
					t.Fatalf("node %d: out-link list too short (%d entries)", i, len(links))
				}
				if links[k].Dst != NodeID(j) || links[k].Quality != topo.Quality[i][j] {
					t.Fatalf("node %d link %d: got (%d,%v), want (%d,%v)",
						i, k, links[k].Dst, links[k].Quality, j, topo.Quality[i][j])
				}
				k++
			}
			if k != len(links) {
				t.Fatalf("node %d: %d extra out-links", i, len(links)-k)
			}
		}
	}
}

// TestOutLinksBuiltOnce verifies the lists are computed once and
// reused — the hot transmit path must not rescan the N×N matrix — and
// that InvalidateLinks forces a rebuild after a manual Quality edit.
func TestOutLinksBuiltOnce(t *testing.T) {
	topo := GridTopology(16, 2.5, 5)
	a := topo.OutLinks(1)
	b := topo.OutLinks(1)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("OutLinks rebuilt between calls (lists must be cached)")
	}
	// Mutating Quality without invalidation keeps the stale cache (the
	// documented contract: topologies are immutable once in use) …
	dst := a[0].Dst
	topo.Quality[1][dst] = 0
	if got := topo.OutLinks(1); len(got) != len(a) {
		t.Fatal("cache unexpectedly rebuilt without InvalidateLinks")
	}
	// … and InvalidateLinks picks the edit up.
	topo.InvalidateLinks()
	if got := topo.OutLinks(1); len(got) != len(a)-1 {
		t.Fatalf("after invalidate: %d links, want %d", len(topo.OutLinks(1)), len(a)-1)
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
		topo := &Topology{N: n, Pos: make([]Point, n), Quality: make([][]float64, n)}
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		for i := range topo.Quality {
			topo.Quality[i] = make([]float64, n)
			topo.Pos[i] = Point{X: float64(i % cols), Y: float64(i / cols)}
		}
		fillLinks(topo, 2.5, newTestRand(9))
		topo.OutLinks(0) // the topology, link tables included, is built beforehand
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
