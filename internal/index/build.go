package index

import (
	"scoop/internal/histogram"
	"scoop/internal/netsim"
)

// NodeStat is the basestation's last-known statistics for one node:
// the summary histogram over its recent readings and its data
// production rate (paper §5.2). Nodes whose summaries were all lost
// keep the zero value; the algorithm then knows nothing about what
// they produce, exactly as in the paper.
type NodeStat struct {
	Hist histogram.Histogram
	Rate float64 // readings produced per second
}

// QueryProfile models the query workload the basestation has observed:
// the query rate and, per value, the probability that a query's range
// covers that value (paper §5.5: "the basestation updates its
// statistics that keep track of the query rate, and which attributes
// and what value ranges get queried").
type QueryProfile struct {
	Rate     float64   // queries issued per second
	MinValue int       // domain start for Prob
	Prob     []float64 // Prob[v-MinValue] = P(user queries v)
}

// ProbOf returns P(user queries v).
func (q QueryProfile) ProbOf(v int) float64 {
	i := v - q.MinValue
	if i < 0 || i >= len(q.Prob) {
		return 0
	}
	return q.Prob[i]
}

// BuildInput carries everything the indexing algorithm consumes.
type BuildInput struct {
	N    int           // network size including base
	Base netsim.NodeID // basestation (node 0 in Scoop)
	// Nodes holds the last-known statistics, indexed by NodeID; a
	// zero entry means no summary has arrived from that node. A dense
	// slice (not a map) keeps cost summation order deterministic.
	Nodes []NodeStat
	Query QueryProfile
	// Xmits is the all-pairs expected-transmission matrix. Callers
	// may leave it nil and set Graph instead; the build then runs the
	// sparse shortest-path pass itself (with a Builder, reusing its
	// scratch) and fills Xmits in.
	Xmits    [][]float64
	Graph    *Graph
	MinValue int // attribute value domain, inclusive
	MaxValue int
}

// domainSize returns the number of values under consideration.
func (in BuildInput) domainSize() int { return in.MaxValue - in.MinValue + 1 }

// Cost returns the expected number of messages per second if value v
// is stored at owner o — the inner computation of the paper's Figure 2:
//
//	cost(o,v) = Σ_p P(p produces v)·rate_p·xmits(p→o)
//	          + P(user queries v)·queryRate·xmits(base→o→base)
func (in BuildInput) Cost(o netsim.NodeID, v int) float64 {
	cost := 0.0
	for p := range in.Nodes {
		st := &in.Nodes[p]
		prob := st.Hist.Prob(v)
		if prob == 0 || st.Rate == 0 || netsim.NodeID(p) == o {
			continue
		}
		x := in.Xmits[p][o]
		if x >= Inf {
			return Inf
		}
		cost += prob * st.Rate * x
	}
	if qp := in.Query.ProbOf(v); qp > 0 && in.Query.Rate > 0 && o != in.Base {
		x := RoundTrip(in.Xmits, in.Base, o)
		if x >= Inf {
			return Inf
		}
		cost += qp * in.Query.Rate * x
	}
	return cost
}

// contiguityTolerance lets the previous value's owner keep the next
// value when it is within this fraction of the optimum. Neighbouring
// values usually have near-identical costs (the same nodes produce
// them), and breaking those ties arbitrarily fragments the index into
// many tiny ranges — defeating range compaction (paper §5.3), data
// batching (§5.4) and single-owner range queries (§4, "range
// extensions"). A small tolerance yields the compact contiguous
// indices shown in the paper's Figure 1 at negligible cost.
const contiguityTolerance = 0.08

// contribTable is BuildOwners' precomputed view of who produces what:
// for each value, the producers with non-zero probability and rate, in
// ascending producer order, with weight prob·rate. The naive algorithm
// rescans every node's histogram for every (owner, value) pair —
// O(V·n²) histogram probes — which is what made 1000-node index
// builds the simulation bottleneck. Since term order and the
// prob·rate·x association are preserved, the computed costs are
// floating-point identical to the naive scan.
type contribTable struct {
	off     []int32 // CSR offsets per value index
	prods   []int32
	weights []float64 // prob(v)·rate per (value, producer)
}

// build fills the table from the input's histograms, reusing the
// receiver's slices across rebuilds (the Builder double-buffers two
// tables so the previous build's weights survive for dirty diffing).
func (t *contribTable) build(in *BuildInput) {
	V := in.domainSize()
	if cap(t.off) < V+1 {
		t.off = make([]int32, V+1)
	}
	t.off = t.off[:V+1]
	t.off[0] = 0
	t.prods = t.prods[:0]
	t.weights = t.weights[:0]
	for i := 0; i < V; i++ {
		v := in.MinValue + i
		for p := range in.Nodes {
			st := &in.Nodes[p]
			prob := st.Hist.Prob(v)
			if prob == 0 || st.Rate == 0 {
				continue
			}
			t.prods = append(t.prods, int32(p))
			t.weights = append(t.weights, prob*st.Rate)
		}
		t.off[i+1] = int32(len(t.prods))
	}
}

// cost mirrors BuildInput.Cost over the precomputed contributors.
func (t *contribTable) cost(in *BuildInput, o netsim.NodeID, vi int) float64 {
	c := 0.0
	for k := t.off[vi]; k < t.off[vi+1]; k++ {
		p := t.prods[k]
		if netsim.NodeID(p) == o {
			continue
		}
		x := in.Xmits[p][o]
		if x >= Inf {
			return Inf
		}
		c += t.weights[k] * x
	}
	if qp := in.Query.ProbOf(in.MinValue + vi); qp > 0 && in.Query.Rate > 0 && o != in.Base {
		x := RoundTrip(in.Xmits, in.Base, o)
		if x >= Inf {
			return Inf
		}
		c += qp * in.Query.Rate * x
	}
	return c
}
