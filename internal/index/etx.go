package index

import (
	"math"

	"scoop/internal/netsim"
)

// Inf is the xmits value for unreachable pairs.
const Inf = math.MaxFloat64 / 4

// Graph holds the basestation's view of link qualities, built from the
// topology section of summary messages (each node's best-connected
// neighbors with estimated inbound quality) plus the origin/parent
// fields in Scoop packet headers (paper §5.2). Quality[i][j] estimates
// the delivery probability of one transmission i→j.
//
// Quality's row slices share one flat backing array (the same trick
// the xmits matrix uses), so an n-node graph is two allocations and
// Reset can recycle it across index rebuilds without churning the
// allocator.
type Graph struct {
	N       int
	Quality [][]float64
	flat    []float64
}

// NewGraph returns an n-node graph with no links.
func NewGraph(n int) *Graph {
	g := &Graph{N: n, Quality: make([][]float64, n), flat: make([]float64, n*n)}
	for i := range g.Quality {
		g.Quality[i] = g.flat[i*n : (i+1)*n : (i+1)*n]
	}
	return g
}

// Reset clears every link observation so the graph can be rebuilt from
// the next batch of summaries. The basestation keeps one Graph alive
// across rebuilds instead of reallocating an n×n matrix each epoch.
func (g *Graph) Reset() {
	for i := range g.flat {
		g.flat[i] = 0
	}
}

// Report records a link-quality observation: node `to` reported
// hearing `from` with the given delivery probability. Newer reports
// overwrite older ones (the basestation keeps the last summary per
// node).
func (g *Graph) Report(from, to netsim.NodeID, quality float64) {
	if int(from) >= g.N || int(to) >= g.N || from == to {
		return
	}
	if quality < 0 {
		quality = 0
	}
	if quality > 1 {
		quality = 1
	}
	g.Quality[from][to] = quality
}

// minUsableQuality guards the ETX metric against wildly expensive
// links: links below this estimated quality are not considered usable
// edges (they would imply >8 expected transmissions per hop).
const minUsableQuality = 0.125

// Xmits computes the all-pairs expected-transmission-count matrix
// xmits(x→y) from the current link estimates, the quantity the
// indexing algorithm in Figure 2 of the paper consumes. Edge cost is
// the ETX of the hop, 1/quality; unusable pairs get Inf.
//
// Nodes report only their ~12 best neighbors (paper §5.2), so the
// graph is sparse: per-source Dijkstra over a CSR adjacency is
// O(n·(E + n log n)) instead of the dense Floyd–Warshall's O(n³),
// which is what keeps 1000-node index rebuilds off the simulation's
// critical path. Convenience wrapper over a throwaway solver; the
// basestation's Builder keeps a warm solver with reusable scratch.
func (g *Graph) Xmits() [][]float64 {
	var s spSolver
	return s.allPairs(g)
}

// RoundTrip returns xmits(base→o→base) given a precomputed matrix:
// the cost of delivering a query to owner o and routing the reply
// back (paper Figure 2).
func RoundTrip(xmits [][]float64, base, o netsim.NodeID) float64 {
	return xmits[base][o] + xmits[o][base]
}
