package index

import (
	"math/rand"
	"testing"

	"scoop/internal/histogram"
	"scoop/internal/netsim"
)

// paperScaleInput builds the index algorithm's input at the paper's
// scale: V≈150 values, n=63 nodes, full statistics.
func paperScaleInput(seed int64) BuildInput {
	r := rand.New(rand.NewSource(seed))
	n := 63
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < 0.2 {
				g.Report(netsim.NodeID(i), netsim.NodeID(j), 0.2+0.7*r.Float64())
			}
		}
	}
	nodes := make([]NodeStat, n)
	for i := 1; i < n; i++ {
		vals := make([]int, 30)
		center := r.Intn(150)
		for k := range vals {
			vals[k] = clampInt(center+r.Intn(21)-10, 0, 150)
		}
		nodes[i] = NodeStat{Hist: histogram.Build(vals, 10), Rate: 1.0 / 15}
	}
	return BuildInput{
		N: n, Base: 0, Nodes: nodes,
		Query:    QueryProfile{Rate: 1.0 / 15, MinValue: 0, Prob: uniformProb(151)},
		Graph:    g,
		MinValue: 0, MaxValue: 150,
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BenchmarkBuildPaperScale measures the O(V·n²) index construction at
// the paper's dimensions (V≈150, n=63) — the basestation's periodic
// workload, which the paper calls "very practical".
func BenchmarkBuildPaperScale(b *testing.B) {
	in := paperScaleInput(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(uint16(i+1), in)
	}
}

// BenchmarkBuild128Nodes measures construction at the protocol's hard
// network-size cap.
func BenchmarkBuild128Nodes(b *testing.B) {
	in := paperScaleInput(2)
	// Widen to 128 nodes by padding stats.
	r := rand.New(rand.NewSource(3))
	g := NewGraph(128)
	for i := 0; i < 128; i++ {
		for j := 0; j < 128; j++ {
			if i != j && r.Float64() < 0.15 {
				g.Report(netsim.NodeID(i), netsim.NodeID(j), 0.2+0.7*r.Float64())
			}
		}
	}
	nodes := make([]NodeStat, 128)
	copy(nodes, in.Nodes)
	for i := len(in.Nodes); i < 128; i++ {
		nodes[i] = in.Nodes[1+i%62]
	}
	in.N = 128
	in.Nodes = nodes
	in.Graph = g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(uint16(i+1), in)
	}
}

// rebuildBenchScenario builds an n-node ~12-degree graph plus full
// statistics, the reindex-pipeline comparison scenario (mirrors the
// perfbench index/rebuild shape).
func rebuildBenchScenario(n int, seed int64) (*Graph, BuildInput) {
	r := rand.New(rand.NewSource(seed))
	domain := 151
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for d := 0; d < 12; d++ {
			if j := r.Intn(n); j != i {
				g.Report(netsim.NodeID(i), netsim.NodeID(j), 0.2+0.75*r.Float64())
			}
		}
	}
	nodes := make([]NodeStat, n)
	for i := 1; i < n; i++ {
		vals := make([]int, 30)
		center := r.Intn(domain)
		for k := range vals {
			vals[k] = clampInt(center+k%21-10, 0, domain-1)
		}
		nodes[i] = NodeStat{Hist: histogram.Build(vals, 10), Rate: 1.0 / 15}
	}
	in := BuildInput{
		N: n, Base: 0, Nodes: nodes,
		Query:    QueryProfile{Rate: 1.0 / 15, MinValue: 0, Prob: uniformProb(domain)},
		MinValue: 0, MaxValue: domain - 1,
	}
	return g, in
}

// BenchmarkRebuildPipelineDense1000 measures the pre-overhaul
// basestation pipeline at the scale tier: dense Floyd–Warshall plus
// the naive per-(owner,value) cost scan — the baseline the ≥5×
// index/rebuild/n1000 speedup claim is measured against.
//
//	go test -bench 'RebuildPipeline' -benchtime 3x ./internal/index
func BenchmarkRebuildPipelineDense1000(b *testing.B) {
	g, in := rebuildBenchScenario(1000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveOwners(in, g.XmitsDense())
	}
}

// BenchmarkRebuildPipelineSparse1000 is the same rebuild through the
// Builder — sparse SPT plus the streamed contributor-table owner
// search — cold (fresh Builder per op; the warm path is perfbench's
// index/rebuild/n1000).
func BenchmarkRebuildPipelineSparse1000(b *testing.B) {
	g, in := rebuildBenchScenario(1000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bl Builder
		in := in
		in.Graph = g
		bl.BuildOwners(&in)
	}
}

// BenchmarkXmitsAllPairs measures the all-pairs ETX pass, Graph.Xmits, alone.
func BenchmarkXmitsAllPairs(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	g := NewGraph(63)
	for i := 0; i < 63; i++ {
		for j := 0; j < 63; j++ {
			if i != j && r.Float64() < 0.2 {
				g.Report(netsim.NodeID(i), netsim.NodeID(j), 0.2+0.7*r.Float64())
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Xmits()
	}
}

// BenchmarkOwnerLookup measures the binary-search owner resolution on
// a realistic compacted index.
func BenchmarkOwnerLookup(b *testing.B) {
	ix := Build(1, paperScaleInput(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Owner(i % 151)
	}
}

// BenchmarkChunksAndAssemble measures the dissemination round trip.
func BenchmarkChunksAndAssemble(b *testing.B) {
	ix := Build(1, paperScaleInput(6))
	b.ResetTimer()
	set := ChunkSet{Shared: &Generations{}}
	for i := 0; i < b.N; i++ {
		set.Clear()
		for _, c := range ix.Chunks(6) {
			offer(&set, c)
		}
	}
}
