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
// fields in Scoop packet headers (paper §5.2).
//
// A node reports only its ~12 best neighbors, so the graph is kept as
// what arrived: a list of reports, packed into the shortest-path pass's
// CSR adjacency in O(N + reports) (csr.build). Reset truncates the list,
// so the basestation reuses one Graph across index rebuilds.
type Graph struct {
	N       int
	reports []linkReport
}

// linkReport is one observation: one transmission from→to is delivered
// with probability q.
type linkReport struct {
	from, to int32
	q        float64
}

// NewGraph returns an n-node graph with no links.
func NewGraph(n int) *Graph { return &Graph{N: n} }

// Reset clears every link observation so the graph can be rebuilt from
// the next batch of summaries.
func (g *Graph) Reset() { g.reports = g.reports[:0] }

// Report records a link-quality observation: node `to` reported
// hearing `from` with the given delivery probability, clamped to [0, 1].
// The last report of a pair is the one that counts (the basestation
// keeps the last summary per node); self-reports and IDs outside the
// graph are ignored.
func (g *Graph) Report(from, to netsim.NodeID, quality float64) {
	if int(from) >= g.N || int(to) >= g.N || from == to {
		return
	}
	g.reports = append(g.reports, linkReport{from: int32(from), to: int32(to), q: min(max(quality, 0), 1)})
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
// critical path. The whole matrix is for the analytical policies and
// the tests: the basestation's Builder solves only the rows a rebuild
// reads and never holds all of them.
func (g *Graph) Xmits() [][]float64 {
	var adj csr
	adj.build(g)
	n := g.N
	flat := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	maxW := maxWorkers()
	heaps := make([]spHeap, maxW)
	parallelFor(maxW, n, n*(len(adj.to)+n), func(worker, lo, hi int) {
		for src := lo; src < hi; src++ {
			dijkstra(&adj, int32(src), rows[src], &heaps[worker], -1)
		}
	})
	return rows
}

// RoundTrip returns xmits(base→o→base) given a precomputed matrix:
// the cost of delivering a query to owner o and routing the reply
// back (paper Figure 2).
func RoundTrip(xmits [][]float64, base, o netsim.NodeID) float64 {
	return xmits[base][o] + xmits[o][base]
}
