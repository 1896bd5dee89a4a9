// Package query implements Scoop's aggregate query engine: the
// aggregate operator model (COUNT/SUM/MIN/MAX/AVG plus approximate
// quantiles), the mergeable partial-aggregate state that flows up the
// routing tree TAG-style (Madden et al.), the summary-based estimator
// that answers aggregates at the basestation with an error bound, and
// the cost-based planner that picks the cheapest physical plan per
// query.
//
// The package is deliberately protocol-agnostic: internal/core adapts
// its messages and node state to these types, and the experiment
// harness consumes the planner's decisions for accounting. Nothing
// here touches the radio.
package query

import (
	"scoop/internal/netsim"
)

// Op is an aggregate operator. OpSelect is the degenerate "SELECT *"
// tuple-return operator kept so one query model covers both workloads.
type Op uint8

// Aggregate operators.
const (
	OpSelect Op = iota // return matching tuples (no aggregation)
	OpCount
	OpSum
	OpMin
	OpMax
	OpAvg
	OpQuantile // approximate quantile, served from summaries only
	numOps
)

// Aggregate reports whether the operator reduces tuples to a scalar
// (everything but OpSelect).
func (o Op) Aggregate() bool { return o != OpSelect }

// Exact reports whether the operator can be computed exactly from
// mergeable partial state flowing up the tree. Quantiles cannot (they
// would need full histograms per packet), so they are summary-only.
func (o Op) Exact() bool { return o.Aggregate() && o != OpQuantile }

// AggQuery is one aggregate user request: an operator over a value
// range and time window, with an accuracy budget that tells the
// planner how much approximation the user tolerates.
type AggQuery struct {
	Op               Op
	Quantile         float64 // in (0,1); used by OpQuantile only
	ValueLo, ValueHi int
	TimeLo, TimeHi   netsim.Time
	// ErrBudget is the largest relative error the user accepts from an
	// approximate (summary-served) answer. 0 demands an exact plan.
	ErrBudget float64
}

// Partial is the mergeable partial-aggregate state one node (or one
// combined subtree) contributes: enough to answer COUNT, SUM, MIN,
// MAX and AVG exactly after any merge order. The zero value is the
// empty partial.
type Partial struct {
	Count    int64
	Sum      int64
	Min, Max int
}

// Empty reports whether the partial summarises no readings.
func (p Partial) Empty() bool { return p.Count == 0 }

// Add folds one reading value into the partial.
func (p *Partial) Add(v int) {
	if p.Count == 0 {
		p.Min, p.Max = v, v
	} else {
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
	}
	p.Count++
	p.Sum += int64(v)
}

// Merge folds another partial into p. Merging is commutative and
// associative, so any combining tree yields the same answer.
func (p *Partial) Merge(o Partial) {
	if o.Count == 0 {
		return
	}
	if p.Count == 0 {
		*p = o
		return
	}
	p.Count += o.Count
	p.Sum += o.Sum
	if o.Min < p.Min {
		p.Min = o.Min
	}
	if o.Max > p.Max {
		p.Max = o.Max
	}
}

// Answer evaluates the operator over the merged partial. ok is false
// when no readings matched (COUNT still answers 0, true).
func (p Partial) Answer(op Op) (float64, bool) {
	if op == OpCount {
		return float64(p.Count), true
	}
	if p.Count == 0 {
		return 0, false
	}
	switch op {
	case OpSum:
		return float64(p.Sum), true
	case OpMin:
		return float64(p.Min), true
	case OpMax:
		return float64(p.Max), true
	case OpAvg:
		return float64(p.Sum) / float64(p.Count), true
	}
	return 0, false
}
