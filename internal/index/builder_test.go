package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/histogram"
	"scoop/internal/netsim"
)

// costFn returns cost(·, v) of the paper's Figure 2 as a function of
// the owner, read from the full xmits matrix x:
//
//	cost(o,v) = Σ_p P(p produces v)·rate_p·xmits(p→o)
//	          + P(user queries v)·queryRate·xmits(base→o→base)
//
// The producers of v are found once, in ascending order; each owner's
// cost is then the scalar left fold over them, Inf as soon as a term
// is.
func costFn(in BuildInput, x [][]float64, v int) func(o netsim.NodeID) float64 {
	var ps []int
	var ws []float64
	for p := range in.Nodes {
		st := &in.Nodes[p]
		if prob := st.Hist.Prob(v); prob != 0 && st.Rate != 0 {
			ps = append(ps, p)
			ws = append(ws, prob*st.Rate)
		}
	}
	return func(o netsim.NodeID) float64 {
		c := 0.0
		for k, p := range ps {
			if netsim.NodeID(p) == o {
				continue
			}
			if x[p][o] >= Inf {
				return Inf
			}
			c += ws[k] * x[p][o]
		}
		if qp := in.Query.ProbOf(v); qp > 0 && in.Query.Rate > 0 && o != in.Base {
			rt := RoundTrip(x, in.Base, o)
			if rt >= Inf {
				return Inf
			}
			c += qp * in.Query.Rate * rt
		}
		return c
	}
}

// cost is costFn for one owner.
func cost(in BuildInput, x [][]float64, o netsim.NodeID, v int) float64 {
	return costFn(in, x, v)(o)
}

// naiveOwners is the reference the Builder is held to: the paper's
// Figure 2 loop, one scalar cost per (owner, value) from the full xmits
// matrix x of in.Graph, with no batching, no accumulator and no
// parallelism. The Builder must reproduce it bit for bit.
func naiveOwners(in BuildInput, x [][]float64) []netsim.NodeID {
	owners := make([]netsim.NodeID, in.domainSize())
	prev := netsim.NodeID(0)
	for i := range owners {
		costOf := costFn(in, x, in.MinValue+i)
		best := in.Base
		bestCost := costOf(in.Base)
		for o := 0; o < in.N; o++ {
			oid := netsim.NodeID(o)
			if oid == in.Base {
				continue
			}
			if c := costOf(oid); c < bestCost {
				best, bestCost = oid, c
			}
		}
		if i > 0 && prev != best && costOf(prev) <= bestCost*(1+contiguityTolerance) {
			best = prev
		}
		owners[i] = best
		prev = best
	}
	return owners
}

// checkOwners builds in with b and fails unless the owners equal
// naiveOwners'.
func checkOwners(t *testing.T, b *Builder, in BuildInput, what string) {
	t.Helper()
	got := b.BuildOwners(&in)
	want := naiveOwners(in, in.Graph.Xmits())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: owner[%d] = %d, naive scan %d", what, i, got[i], want[i])
		}
	}
}

// world is the mutable scenario the property test evolves: per-node
// sampling stats and a live link-quality map, from which each step's
// Graph and BuildInput are regenerated.
type world struct {
	n        int
	domain   int
	rates    []float64
	centers  []int // histogram centers; -1 = node down
	links    map[[2]int]float64
	qCenter  float64
	qRate    float64
	r        *rand.Rand
	g        *Graph // reused across steps, like the basestation's
	hists    []histogram.Histogram
	histDirt []bool
}

func newWorld(n, domain int, seed int64) *world {
	w := &world{
		n: n, domain: domain,
		rates:    make([]float64, n),
		centers:  make([]int, n),
		links:    make(map[[2]int]float64),
		qCenter:  0.5,
		qRate:    1.0 / 15,
		r:        rand.New(rand.NewSource(seed)),
		g:        NewGraph(n),
		hists:    make([]histogram.Histogram, n),
		histDirt: make([]bool, n),
	}
	for i := 1; i < n; i++ {
		w.rates[i] = 1.0 / 15
		w.centers[i] = w.r.Intn(domain)
		w.histDirt[i] = true
	}
	for i := 0; i < n; i++ {
		deg := 3 + w.r.Intn(4)
		for d := 0; d < deg; d++ {
			j := w.r.Intn(n)
			if j != i {
				w.links[[2]int{i, j}] = 0.2 + 0.75*w.r.Float64()
			}
		}
	}
	return w
}

// input regenerates the Graph (via Reset, like core.Base) and the
// BuildInput for the current world state.
func (w *world) input() BuildInput {
	w.g.Reset()
	// Deterministic link order (map iteration is randomized).
	keys := make([][2]int, 0, len(w.links))
	for k := range w.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] ||
			(keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1])
	})
	for _, k := range keys {
		if w.centers[k[0]] < 0 || w.centers[k[1]] < 0 {
			continue // dead endpoints report no links
		}
		w.g.Report(netsim.NodeID(k[0]), netsim.NodeID(k[1]), w.links[k])
	}
	nodes := make([]NodeStat, w.n)
	for i := 1; i < w.n; i++ {
		if w.centers[i] < 0 {
			continue
		}
		if w.histDirt[i] {
			vals := make([]int, 20)
			for k := range vals {
				v := w.centers[i] + k%11 - 5
				if v < 0 {
					v = 0
				}
				if v >= w.domain {
					v = w.domain - 1
				}
				vals[k] = v
			}
			w.hists[i] = histogram.Build(vals, 10)
			w.histDirt[i] = false
		}
		nodes[i] = NodeStat{Hist: w.hists[i], Rate: w.rates[i]}
	}
	prob := make([]float64, w.domain)
	lo := int(w.qCenter*float64(w.domain)) - w.domain/10
	for v := lo; v < lo+w.domain/5; v++ {
		if v >= 0 && v < w.domain {
			prob[v] = 5.0 / float64(w.domain)
		}
	}
	return BuildInput{
		N: w.n, Base: 0,
		Nodes:    nodes,
		Query:    QueryProfile{Rate: w.qRate, MinValue: 0, Prob: prob},
		MinValue: 0, MaxValue: w.domain - 1,
	}
}

// apply maps a dynamics event onto the world, the same perturbation
// vocabulary the churn/drift engine injects into live runs.
func (w *world) apply(e dynamics.Event) {
	switch e.Kind {
	case dynamics.NodeDown:
		if int(e.Node) < w.n {
			w.centers[e.Node] = -1
		}
	case dynamics.NodeUp:
		if int(e.Node) < w.n {
			w.centers[e.Node] = w.r.Intn(w.domain)
			w.histDirt[e.Node] = true
		}
	case dynamics.DataShift:
		shift := int(e.Value * float64(w.domain))
		for i := 1; i < w.n; i++ {
			if w.centers[i] < 0 {
				continue
			}
			c := w.centers[i] + shift
			if c < 0 {
				c = 0
			}
			if c >= w.domain {
				c = w.domain - 1
			}
			if c != w.centers[i] {
				w.centers[i] = c
				w.histDirt[i] = true
			}
		}
	case dynamics.QueryShift:
		w.qCenter = e.Value
	case dynamics.NetLoss:
		for k, q := range w.links {
			w.links[k] = q * (1 - e.Value)
		}
	case dynamics.LinkLoss:
		k := [2]int{int(e.Src) % w.n, int(e.Dst) % w.n}
		if q, ok := w.links[k]; ok {
			w.links[k] = q * (1 - e.Value)
		}
	}
}

// TestBuilderMatchesScratch: across randomized churn/drift event
// sequences (built by the internal/dynamics script generator), every
// rebuild of a warm Builder produces exactly the owners the naive scan
// computes from the same inputs, including the steps where nothing
// changed. Every seventh node's statistics are withheld, as when its
// summaries were lost: it still reports links, so its Dijkstra stops at
// the base. The larger worlds have more contributors than one row
// batch holds.
func TestBuilderMatchesScratch(t *testing.T) {
	sawEarlyExit, sawBatches := false, false
	for seed := int64(1); seed <= 6; seed++ {
		n := 16 + int(seed)*9
		w := newWorld(n, 60, seed)
		script := dynamics.Standard(n, 60_000, 1_200_000, 0.2, 0.5, seed)
		var b Builder
		events := script.Events
		// Process events in batches that grow with the world (its
		// script does); the last two rebuilds change nothing.
		for step, idle := 0, 0; idle < 2; step++ {
			if len(events) == 0 {
				idle++
			} else {
				batch := min(1+w.r.Intn(n/12), len(events))
				for _, e := range events[:batch] {
					w.apply(e)
				}
				events = events[batch:]
			}
			in := w.input()
			for i := 7; i < n; i += 7 {
				in.Nodes[i] = NodeStat{}
			}
			in.Graph = w.g
			checkOwners(t, &b, in, fmt.Sprintf("seed %d step %d", seed, step))
			for _, o := range b.others {
				if o != 0 && w.centers[o] >= 0 {
					sawEarlyExit = true
				}
			}
			sawBatches = sawBatches || len(b.contrib) > rowBatch
		}
	}
	if !sawEarlyExit {
		t.Error("no live node without statistics: the early-exit search never ran")
	}
	if !sawBatches {
		t.Errorf("no rebuild had more than %d contributors: only one row batch ever ran", rowBatch)
	}
}

// TestBuilderFullRebuildOnShapeChange: a warm Builder whose network
// size or value domain grows or shrinks between rebuilds still equals
// the naive scan; no scratch from the earlier shape leaks in.
func TestBuilderFullRebuildOnShapeChange(t *testing.T) {
	var b Builder
	for _, sh := range []struct{ n, domain int }{{20, 40}, {24, 40}, {12, 30}, {30, 70}} {
		w := newWorld(sh.n, sh.domain, int64(sh.n))
		in := w.input()
		in.Graph = w.g
		checkOwners(t, &b, in, fmt.Sprintf("n = %d, domain = %d", sh.n, sh.domain))
	}
}

// TestBuilderGOMAXPROCSDeterminism pins the parallel rebuild: at N =
// 400 the contributors span several row batches and the work clears
// the parallel grain, so at GOMAXPROCS 8 (forced, so single-core CI
// still runs the concurrent path) parallelFor forks and the workers
// meet at the barrier twice a batch. Both builds must equal the naive
// scan, and so each other, bit for bit.
func TestBuilderGOMAXPROCSDeterminism(t *testing.T) {
	g, in := rebuildBenchScenario(400, 21)
	in.Graph = g
	want := naiveOwners(in, g.Xmits())
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var b Builder
		got := b.BuildOwners(&in)
		runtime.GOMAXPROCS(prev)
		if len(b.contrib) <= rowBatch {
			t.Fatalf("%d contributors fit one row batch of %d", len(b.contrib), rowBatch)
		}
		if work := in.N * (len(b.adj.to) + in.N); work < parallelGrain {
			t.Fatalf("the shortest-path work %d is under the parallel grain %d", work, parallelGrain)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d: owner[%d] = %d, naive scan %d", procs, i, got[i], want[i])
			}
		}
	}
}

// TestBuilderHoldsNoMatrix: the basestation's reindex state at N = 1000
// and V = 151 — NewGraph, then two rebuilds of one Builder with the
// link graph changed between them — allocates less than one N×N
// float64 xmits matrix (8 MB): the report list, the adjacency with its
// sort scratch, the contributor table, one batch of rows, the V×N
// accumulator and per-worker scratch. Any design that holds the whole
// matrix fails it.
func TestBuilderHoldsNoMatrix(t *testing.T) {
	const n = 1000
	_, in := rebuildBenchScenario(n, 11)
	type link struct {
		from, to netsim.NodeID
		q        float64
	}
	r := rand.New(rand.NewSource(12))
	var links []link
	for i := 0; i < n; i++ {
		for d := 0; d < 12; d++ {
			if j := r.Intn(n); j != i {
				links = append(links, link{netsim.NodeID(i), netsim.NodeID(j), 0.2 + 0.75*r.Float64()})
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGraph(n)
	var b Builder
	for round := 0; round < 2; round++ {
		g.Reset()
		for _, l := range links {
			g.Report(l.from, l.to, l.q)
		}
		in := in
		in.Graph = g
		b.BuildOwners(&in)
		links[0].q /= 2
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewGraph + 2 rebuilds at N = %d, V = %d, E = %d: %d B", n, in.domainSize(), len(links), bytes)
	if budget := uint64(8 * n * n); bytes >= budget {
		t.Fatalf("NewGraph + 2 rebuilds allocate %d B, want < %d (one N×N xmits matrix)", bytes, budget)
	}
}

// TestBuilderWarmRebuildAllocs: once a Builder's scratch has reached
// its size, a rebuild at GOMAXPROCS 1 allocates only its barrier and
// the closure it hands parallelFor, however many row batches it
// solves.
func TestBuilderWarmRebuildAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, in := rebuildBenchScenario(300, 5)
	in.Graph = g
	var b Builder
	b.BuildOwners(&in)
	allocs := testing.AllocsPerRun(5, func() { b.BuildOwners(&in) })
	if allocs > 2 {
		t.Fatalf("warm rebuild: %v allocations, want ≤ 2", allocs)
	}
}
