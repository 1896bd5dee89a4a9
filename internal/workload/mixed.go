package workload

import (
	"math/rand/v2"

	"scoop/internal/netsim"
	"scoop/internal/query"
)

// Request is one generated user request: always a range/time query,
// optionally lifted to an aggregate. Agg is nil for plain tuple
// requests ("SELECT *"); MixedGen points it at its own AggQuery, valid
// until its next NextRequest.
type Request struct {
	Query Query
	Agg   *query.AggQuery
}

// DefaultAggOps is the operator rotation mixed streams cycle through:
// the exact aggregates first, then one approximate quantile.
var DefaultAggOps = []query.Op{
	query.OpCount, query.OpSum, query.OpAvg,
	query.OpMin, query.OpMax, query.OpQuantile,
}

// MixedGen lifts a tuple-query generator into a mixed tuple/aggregate
// stream: each request is an aggregate with probability AggRatio,
// cycling deterministically through Ops so every operator appears in
// long runs. The wrapped generator supplies the value/time ranges, so
// hot-range dynamics and width settings keep working unchanged.
type MixedGen struct {
	rng *rand.Rand
	// Tuple produces the underlying range queries.
	Tuple Generator
	// AggRatio is the fraction of requests lifted to aggregates.
	AggRatio float64
	// Ops is the aggregate-operator rotation (DefaultAggOps when nil).
	Ops []query.Op
	// ErrBudget is the accuracy budget attached to every aggregate.
	ErrBudget float64
	// Quantile is the fraction OpQuantile requests ask for.
	Quantile float64

	next int
	agg  query.AggQuery // the last request's aggregate (Request.Agg)
}

// NewMixedGen wraps tuple so a fraction aggRatio of requests are
// aggregates carrying the given error budget.
func NewMixedGen(tuple Generator, aggRatio, errBudget float64, seed int64) *MixedGen {
	return &MixedGen{
		rng:       rand.New(rand.NewPCG(uint64(seed), 0)),
		Tuple:     tuple,
		AggRatio:  aggRatio,
		ErrBudget: errBudget,
		Quantile:  0.5,
	}
}

// NextRequest returns the request issued at time now. Its Agg, when
// set, points at the generator's own AggQuery, which the next call
// overwrites: a caller keeping it copies it.
func (g *MixedGen) NextRequest(now netsim.Time) Request {
	q := g.Tuple.Next(now)
	if g.rng.Float64() >= g.AggRatio {
		return Request{Query: q}
	}
	ops := g.Ops
	if len(ops) == 0 {
		ops = DefaultAggOps
	}
	op := ops[g.next%len(ops)]
	g.next++
	g.agg = query.AggQuery{
		Op:        op,
		ValueLo:   q.ValueLo,
		ValueHi:   q.ValueHi,
		TimeLo:    q.TimeLo,
		TimeHi:    q.TimeHi,
		ErrBudget: g.ErrBudget,
	}
	if op == query.OpQuantile {
		g.agg.Quantile = g.Quantile
	}
	return Request{Query: q, Agg: &g.agg}
}
