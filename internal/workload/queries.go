package workload

import (
	"math/rand/v2"

	"scoop/internal/netsim"
)

// Query is one user request issued at the basestation (paper §5.5):
// either a value range over the indexed attribute, or an explicit list
// of nodes, always with a time range of interest.
type Query struct {
	// Value range (used when Nodes is empty).
	ValueLo, ValueHi int
	// Node-list alternative ("a user can query values from one or
	// more specific nodes").
	Nodes []netsim.NodeID
	// Time range of interest, virtual ms.
	TimeLo, TimeHi netsim.Time
}

// IsNodeQuery reports whether the query targets explicit nodes rather
// than a value range.
func (q Query) IsNodeQuery() bool { return len(q.Nodes) > 0 }

// Generator produces the query stream for a run.
type Generator interface {
	// Next returns the query issued at time now.
	Next(now netsim.Time) Query
}

// RangeGen issues value-range queries of random width between WidthLo
// and WidthHi fractions of the attribute domain (paper default: 1–5%),
// placed uniformly at random, over the trailing HistoryWindow of time.
type RangeGen struct {
	rng              *rand.Rand
	domainLo         int
	domainHi         int
	WidthLo, WidthHi float64
	HistoryWindow    netsim.Time

	// Hot-range mode: when hotCenter >= 0, query placement is no
	// longer uniform but normally distributed around the center (a
	// fraction of the domain) with standard deviation hotSpread.
	// Dynamics scripts migrate the center mid-run to model a shifting
	// query workload.
	hotCenter float64
}

// hotSpread is the hot-range standard deviation, a fraction of the
// domain.
const hotSpread = 0.06

// NewRangeGen returns the paper's default query generator over the
// given value domain.
func NewRangeGen(domainLo, domainHi int, seed int64) *RangeGen {
	return &RangeGen{
		rng:           rand.New(rand.NewPCG(uint64(seed), 0)),
		domainLo:      domainLo,
		domainHi:      domainHi,
		WidthLo:       0.01,
		WidthHi:       0.05,
		HistoryWindow: 2 * netsim.Minute,
		hotCenter:     -1,
	}
}

// SetHotCenter switches the generator to hot-range placement around
// frac of the domain (implements dynamics.QueryShifter). A negative
// frac restores uniform placement.
func (g *RangeGen) SetHotCenter(frac float64) { g.hotCenter = frac }

// Next implements Generator.
func (g *RangeGen) Next(now netsim.Time) Query {
	domain := g.domainHi - g.domainLo + 1
	wf := g.WidthLo + g.rng.Float64()*(g.WidthHi-g.WidthLo)
	width := int(float64(domain) * wf)
	if width < 1 {
		width = 1
	}
	var lo int
	if g.hotCenter >= 0 {
		center := g.hotCenter + g.rng.NormFloat64()*hotSpread
		lo = g.domainLo + int(center*float64(domain)) - width/2
		if lo < g.domainLo {
			lo = g.domainLo
		}
		if lo > g.domainHi-width+1 {
			lo = g.domainHi - width + 1
		}
	} else {
		lo = g.domainLo + g.rng.IntN(domain-width+1)
	}
	tlo := now - g.HistoryWindow
	if tlo < 0 {
		tlo = 0
	}
	return Query{ValueLo: lo, ValueHi: lo + width - 1, TimeLo: tlo, TimeHi: now}
}

// NodePctGen issues node-list queries covering a fixed percentage of
// the non-base nodes, drawn at random per query — the Figure 4 sweep.
type NodePctGen struct {
	rng           *rand.Rand
	n             int // network size including base
	Pct           float64
	HistoryWindow netsim.Time
}

// NewNodePctGen returns a generator querying pct (0..1) of the n-1
// non-base nodes each time.
func NewNodePctGen(n int, pct float64, seed int64) *NodePctGen {
	return &NodePctGen{
		rng:           rand.New(rand.NewPCG(uint64(seed), 0)),
		n:             n,
		Pct:           pct,
		HistoryWindow: 5 * netsim.Minute,
	}
}

// Next implements Generator.
func (g *NodePctGen) Next(now netsim.Time) Query {
	count := min(max(int(float64(g.n-1)*g.Pct+0.5), 1), g.n-1)
	perm := g.rng.Perm(g.n - 1)
	nodes := make([]netsim.NodeID, count)
	for i := 0; i < count; i++ {
		nodes[i] = netsim.NodeID(perm[i] + 1) // skip the base (node 0)
	}
	tlo := now - g.HistoryWindow
	if tlo < 0 {
		tlo = 0
	}
	return Query{Nodes: nodes, TimeLo: tlo, TimeHi: now}
}
