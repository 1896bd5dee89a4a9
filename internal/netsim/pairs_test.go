package netsim

// Pair-keyed forms of the per-link radio questions, for tests that ask
// about arbitrary node pairs (the brute-force reference of
// TestAudibleListsMatchBruteForce asks every frame on the air at every
// node). The engine never looks a pair up per frame: transmit walks a
// node's out-links and every audible frame carries its link index.

// quality is the reference for the engine's effective-quality array:
// the delivery probability src→dst now, computed from the primitives
// the control plane sets rather than read from Network.eff. It is 0
// for a pair with no link, into a dead or app-less node and across an
// active fault window, and otherwise the link's quality × linkScale ×
// (1 − burst loss), clamped to [0,1].
func (n *Network) quality(src, dst NodeID) float64 {
	li := n.Topo.linkIndex(src, dst)
	if li < 0 || n.dead[dst] || n.apps[dst] == nil {
		return 0
	}
	if n.faults&blockBlackout != 0 && (inStripe(src, n.blackLo, n.blackHi) || inStripe(dst, n.blackLo, n.blackHi)) ||
		n.faults&blockPartition != 0 && (src < n.partitionBoundary) != (dst < n.partitionBoundary) {
		return 0
	}
	scale := 1.0
	if n.linkScale != nil {
		scale = n.linkScale[li]
	}
	q := n.Topo.links[li].Quality * scale * (1 - n.burstLoss)
	return min(max(q, 0), 1)
}

func inStripe(id, lo, hi NodeID) bool { return id >= lo && id <= hi }

// interferers is interferersAt for the frame a transmit from src would
// put on the link src→dst at start.
func (n *Network) interferers(reg *regionState, src, dst NodeID, start Time) []interferer {
	return n.interferersAt(reg, n.quality(src, dst), src, dst, start)
}
