package netsim

import (
	"math"
	"runtime"
	"testing"

	"scoop/internal/metrics"
)

// linklessNetwork is an n-node network on a topology with no links,
// every node attached: last to first when reversed.
func linklessNetwork(n int, seed int64, reversed bool) *Network {
	topo := &Topology{N: n, Pos: make([]Point, n)}
	for i := range topo.Pos {
		topo.Pos[i] = Point{X: float64(i % 32), Y: float64(i / 32)}
	}
	net := NewNetwork(NewSimulator(seed), topo, metrics.NewCounters(), DefaultParams())
	for i := 0; i < n; i++ {
		id := i
		if reversed {
			id = n - 1 - i
		}
		net.Attach(NodeID(id), inertApp{})
	}
	return net
}

// TestAttachFootprint is the machine-independent guard of DESIGN.md
// §12's "a draw stays on the node's line": every node's NodeAPI, with
// its generator and the Rand over it as fields, is one element of the
// network's slab. NewNetwork allocates as many objects for 1000 nodes as
// for 10, under 512 B a node more, and attaching allocates nothing. On
// the parent commit Attach allocated each NodeAPI, one object a node;
// before that, 3 allocations and 5 553 B a node (math/rand's 607-word
// table behind two pointers).
func TestAttachFootprint(t *testing.T) {
	const small, large = 10, 1000
	build := func(n int) (objs, bytes uint64) {
		objs, bytes = ^uint64(0), ^uint64(0)
		topo := &Topology{N: n, Pos: make([]Point, n)}
		for rep := 0; rep < 3; rep++ { // smallest of three: a stray runtime allocation cannot count
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			net := NewNetwork(NewSimulator(1), topo, nil, DefaultParams())
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(net)
			objs = min(objs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objs, bytes
	}
	objsSmall, bytesSmall := build(small)
	objsLarge, bytesLarge := build(large)
	if objsSmall != objsLarge {
		t.Errorf("NewNetwork allocates %d objects at N = %d, %d at N = %d; want the same", objsSmall, small, objsLarge, large)
	}
	if per := (bytesLarge - bytesSmall) / (large - small); per >= 512 {
		t.Errorf("NewNetwork allocates %d B a node, want < 512", per)
	}

	objs := ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		net := linklessNetwork(large, 1, false)
		runtime.ReadMemStats(&before)
		for i := 0; i < large; i++ {
			net.Attach(NodeID(i), inertApp{}) // again: Attach replaces
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(net)
		objs = min(objs, after.Mallocs-before.Mallocs)
	}
	if objs != 0 {
		t.Errorf("%d Attach calls allocate %d objects, want none", large, objs)
	}
}

// TestSubstreamsIndependent holds the per-node streams to what the
// model assumes of them: each is uniform, and a node's draws say
// nothing about its neighbour's. 1 000 consecutive ids under three
// simulator seeds, the first 4 096 Float64 draws of each: a χ² over 16
// equal bins (15 degrees of freedom: 60 is beyond the 10⁻⁶ tail, the
// largest of these 3 000 is 49.0) and the sample correlation of
// adjacent ids (σ = 1/64: 0.08 is beyond 5σ, the largest is 0.056). The
// streams are a pure function of (seed, id), so the test cannot flake.
func TestSubstreamsIndependent(t *testing.T) {
	const (
		n, draws, bins = 1000, 4096, 16
		maxChi2        = 60.0
		maxCorr        = 0.08
	)
	var worstChi2, worstCorr float64
	for _, seed := range []int64{1, 2 ^ 0x53c00b, 1 << 40} {
		net := linklessNetwork(n, seed, false)
		prev := make([]float64, draws)
		cur := make([]float64, draws)
		for id := 0; id < n; id++ {
			var hist [bins]int
			for k := range cur {
				cur[k] = net.api[id].rng.Float64()
				hist[int(cur[k]*bins)]++
			}
			chi2 := 0.0
			for _, c := range hist {
				d := float64(c) - draws/bins
				chi2 += d * d / (draws / bins)
			}
			worstChi2 = max(worstChi2, chi2)
			if chi2 > maxChi2 {
				t.Errorf("seed %d node %d: χ² = %.1f over %d bins, want ≤ %.0f", seed, id, chi2, bins, maxChi2)
			}
			if id > 0 {
				r := math.Abs(correlation(prev, cur))
				worstCorr = max(worstCorr, r)
				if r > maxCorr {
					t.Errorf("seed %d nodes %d,%d: |r| = %.3f, want ≤ %.2f", seed, id-1, id, r, maxCorr)
				}
			}
			prev, cur = cur, prev
		}
	}
	t.Logf("largest χ² %.1f, largest adjacent |r| %.3f", worstChi2, worstCorr)
}

// correlation is the sample (Pearson) correlation of two equally long series.
func correlation(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestSubstreamsStableAcrossAttachOrder: node i's stream is a function
// of (simulator seed, i) alone — the same first draws when the nodes
// are attached last to first.
func TestSubstreamsStableAcrossAttachOrder(t *testing.T) {
	const n, draws = 256, 8
	first := func(net *Network) [n][draws]int {
		net.Start()
		var out [n][draws]int
		for id := range out {
			for k := range out[id] {
				out[id][k] = net.api[id].RandIntn(1 << 30)
			}
		}
		return out
	}
	want := first(linklessNetwork(n, 7, false))
	if got := first(linklessNetwork(n, 7, true)); got != want {
		t.Error("reversed Attach order: first draws differ")
	}
	if other := first(linklessNetwork(n, 8, false)); other == want {
		t.Error("a different simulator seed produced the same streams")
	}
}
