package index

import "scoop/internal/netsim"

// One-shot forms of the Builder's entry points: each runs a throwaway
// Builder, where the basestation keeps a warm one.

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

// EvaluateIndexCost returns the total expected messages per second of
// an arbitrary (non-local) index under the observed statistics, by the
// naive Figure 2 scan.
func EvaluateIndexCost(ix *Index, in BuildInput) float64 {
	x := in.Graph.Xmits()
	total := 0.0
	for v := in.MinValue; v <= in.MaxValue; v++ {
		o, ok := ix.Owner(v)
		if !ok {
			o = in.Base // unmapped values default to the base
		}
		c := cost(in, x, o, v)
		if c >= Inf {
			return Inf
		}
		total += c
	}
	return total
}
