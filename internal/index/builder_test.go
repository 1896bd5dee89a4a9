package index

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/histogram"
	"scoop/internal/netsim"
)

// naiveOwners is the pre-overhaul reference: the paper's Figure 2 loop
// over BuildInput.Cost with no contributor table, no incremental state
// and no parallelism. The incremental Builder must reproduce it bit
// for bit (same xmits matrix in, same owners out).
func naiveOwners(in BuildInput) []netsim.NodeID {
	owners := make([]netsim.NodeID, in.domainSize())
	prev := netsim.NodeID(0)
	hasPrev := false
	for i := range owners {
		v := in.MinValue + i
		best := in.Base
		bestCost := in.Cost(in.Base, v)
		for o := 0; o < in.N; o++ {
			oid := netsim.NodeID(o)
			if oid == in.Base {
				continue
			}
			if c := in.Cost(oid, v); c < bestCost {
				best, bestCost = oid, c
			}
		}
		if hasPrev && prev != best {
			if c := in.Cost(prev, v); c <= bestCost*(1+contiguityTolerance) {
				best = prev
			}
		}
		owners[i] = best
		prev, hasPrev = best, true
	}
	return owners
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

// TestBuilderMatchesScratch is the incremental-rebuild property test:
// across randomized churn/drift event sequences (built by the
// internal/dynamics script generator), every rebuild of a warm Builder
// must produce exactly the owners a from-scratch naive build computes
// from the same inputs — including the steps where nothing changed at
// all and the builder recomputes nothing.
//
// Every rebuild after a seed's first that re-ran the shortest-path pass
// must also leave rowChanged exactly as the old two-buffer Builder's
// diffRows computed it from the previous and the new matrix; each seed
// ends on a rebuild where exactly one node's reported links changed.
func TestBuilderMatchesScratch(t *testing.T) {
	sawIncremental, sawZeroDirty, sawSPTSkip := false, false, false
	for seed := int64(1); seed <= 6; seed++ {
		n := 16 + int(seed)*7
		w := newWorld(n, 60, seed)
		script := dynamics.Standard(n, 60_000, 1_200_000, 0.2, 0.5, seed)
		var b Builder
		var prev [][]float64 // the previous rebuild's xmits matrix
		rebuild := func(step int) {
			in := w.input()
			in.Graph = w.g
			got := append([]netsim.NodeID(nil), b.BuildOwners(&in)...)
			st := b.LastStats()

			ref := in
			ref.Graph = nil
			ref.Xmits = copyRows(in.Xmits)
			want := naiveOwners(ref)

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: incremental owner[%d] = %d, scratch = %d (recomputed %d/%d, full=%v)",
						seed, step, i, got[i], want[i], st.Recomputed, st.Values, st.FullRebuild)
				}
			}
			if prev != nil && st.SPTSources > 0 {
				if want := diffRowsRef(prev, ref.Xmits); !slices.Equal(b.rowChanged, want) {
					t.Fatalf("seed %d step %d: rowChanged %v, two-buffer diffRows %v", seed, step, b.rowChanged, want)
				}
			}
			prev = ref.Xmits
			if !st.FullRebuild && st.Recomputed < st.Values {
				sawIncremental = true
			}
			if st.Recomputed == 0 {
				sawZeroDirty = true
			}
			if st.SPTSources == 0 {
				sawSPTSkip = true
			}
		}
		events := script.Events
		// Process events in batches, with repeated no-change rebuilds
		// interleaved so the zero-dirty fast path is exercised too.
		step := 0
		for len(events) > 0 || step < 3 {
			batch := 0
			if len(events) > 0 {
				batch = 1 + w.r.Intn(3)
				if batch > len(events) {
					batch = len(events)
				}
				for _, e := range events[:batch] {
					w.apply(e)
				}
				events = events[batch:]
			}
			step++
			rebuild(step)
		}
		// Exactly one node's reported links change: the live node whose
		// summary names the most neighbours reports each of them at a
		// third lower quality.
		reporter, most := -1, 0
		for v := 0; v < n; v++ {
			cnt := 0
			for k := range w.links {
				if k[1] == v && w.centers[k[0]] >= 0 {
					cnt++
				}
			}
			if w.centers[v] >= 0 && cnt > most {
				reporter, most = v, cnt
			}
		}
		for k, q := range w.links {
			if k[1] == reporter {
				w.links[k] = q * 2 / 3
			}
		}
		rebuild(step + 1)
		if b.LastStats().SPTSources == 0 || !slices.Contains(b.rowChanged, true) {
			t.Fatalf("seed %d: node %d's %d reported links changed, but no xmits row did", seed, reporter, most)
		}
	}
	if !sawIncremental {
		t.Error("no step exercised a partial (incremental) recompute")
	}
	if !sawZeroDirty {
		t.Error("no step exercised the zero-dirty fast path")
	}
	if !sawSPTSkip {
		t.Error("no step skipped the shortest-path pass on an unchanged graph")
	}
}

// TestBuilderFullRebuildOnShapeChange: a network-size or domain change
// must abandon incremental state.
func TestBuilderFullRebuildOnShapeChange(t *testing.T) {
	w := newWorld(20, 40, 3)
	var b Builder
	in := w.input()
	in.Graph = w.g
	b.BuildOwners(&in)
	if !b.LastStats().FullRebuild {
		t.Fatal("first build must be full")
	}
	in2 := w.input()
	in2.Graph = w.g
	b.BuildOwners(&in2)
	if b.LastStats().FullRebuild {
		t.Fatal("unchanged rebuild reported full")
	}
	w2 := newWorld(24, 40, 4)
	in3 := w2.input()
	in3.Graph = w2.g
	got := append([]netsim.NodeID(nil), b.BuildOwners(&in3)...)
	if !b.LastStats().FullRebuild {
		t.Fatal("network-size change did not force a full rebuild")
	}
	ref := in3
	ref.Graph = nil
	ref.Xmits = copyRows(in3.Xmits)
	want := naiveOwners(ref)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("owner[%d] after shape change = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBuilderGOMAXPROCSDeterminism pins the parallel owner search: a
// scenario big enough that both the SPT fan-out and the dirty-value
// argmin clear the parallel grain must build bit-identical owners at
// GOMAXPROCS=1 and GOMAXPROCS=8 (forced, so single-core CI still
// exercises the concurrent path).
func TestBuilderGOMAXPROCSDeterminism(t *testing.T) {
	run := func(procs int) []netsim.NodeID {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		w := newWorld(300, 151, 21)
		var b Builder
		in := w.input()
		in.Graph = w.g
		first := append([]netsim.NodeID(nil), b.BuildOwners(&in)...)
		// One incremental step too, so the dirty argmin path is pinned
		// as well as the full one.
		for i := 1; i < 20; i++ {
			w.centers[i] = (w.centers[i] + 30) % w.domain
			w.histDirt[i] = true
		}
		in2 := w.input()
		in2.Graph = w.g
		return append(first, b.BuildOwners(&in2)...)
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("owner %d differs across GOMAXPROCS: %d vs %d", i, serial[i], parallel[i])
		}
	}
}

// diffRowsRef is the two-buffer Builder's diffRows, the reference for
// rowChanged: row p changed when any entry differs (differ) from the
// previous matrix's.
func diffRowsRef(prev, cur [][]float64) []bool {
	out := make([]bool, len(cur))
	for p := range cur {
		for j := range cur[p] {
			if differ(cur[p][j], prev[p][j]) {
				out[p] = true
				break
			}
		}
	}
	return out
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// TestBuilderHoldsOneMatrix: the basestation's reindex state at
// N = 1000 — NewGraph, then two rebuilds of one Builder with the link
// graph changed between them, so the second re-runs the shortest-path
// pass row against row — allocates the one xmits matrix (8 MB) and,
// beside it, only what grows with n, the reports and the value domain:
// 4.2–5.9 MB measured across GOMAXPROCS 1 and 8 and the race detector
// (the report list, two adjacencies with their sort scratch, two
// contributor tables, per-worker scratch). The 7 MiB allowance is less
// than one more n×n float64 array, so any second matrix fails. On the
// parent commit this test fails with 26 598 368 B: the dense Graph and
// the Builder's second xmits buffer, 8 MB each.
func TestBuilderHoldsOneMatrix(t *testing.T) {
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
	if b.LastStats().SPTSources != n || len(b.rowChanged) != n {
		t.Fatal("the second rebuild did not re-run the shortest-path pass row against row")
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewGraph + 2 rebuilds at N = %d, E = %d: %d B", n, len(links), bytes)
	if budget := uint64(8*n*n + 7<<20); bytes > budget {
		t.Fatalf("NewGraph + 2 rebuilds allocate %d B, want ≤ %d (one %d B xmits matrix + 7 MiB)", bytes, budget, 8*n*n)
	}
}
