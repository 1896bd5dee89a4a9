package index

import "scoop/internal/netsim"

// One-shot forms of the Builder's entry points: each runs a throwaway
// Builder, where the basestation keeps a warm one. The tests use them
// as the from-scratch reference an incremental build must equal.

// BuildOwners is Builder.BuildOwners on a fresh Builder, with the
// result copied out of the builder's scratch.
func BuildOwners(in BuildInput) []netsim.NodeID {
	var b Builder
	return append([]netsim.NodeID(nil), b.BuildOwners(&in)...)
}

// Build is Builder.Build on a fresh Builder.
func Build(id uint16, in BuildInput) *Index {
	var b Builder
	return b.Build(id, &in)
}

// ChooseIndex is Builder.ChooseIndex on a fresh Builder.
func ChooseIndex(id uint16, in BuildInput) *Index {
	var b Builder
	return b.ChooseIndex(id, &in)
}

// EvaluateIndexCost returns the total expected messages per second of
// an arbitrary (non-local) index under the observed statistics.
func EvaluateIndexCost(ix *Index, in BuildInput) float64 {
	in.fillXmits()
	var ct contribTable
	ct.build(&in)
	return evalIndexCost(&ct, ix, &in)
}
