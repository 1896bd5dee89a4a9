package netsim

// Pair-keyed forms of the per-link radio questions, for tests that ask
// about arbitrary node pairs (the brute-force reference of
// TestAudibleListsMatchBruteForce asks every frame on the air at every
// node). The engine never looks a pair up per frame: transmit walks a
// node's out-links and every audible frame carries its link index.

// quality returns the effective delivery probability src→dst now, 0 for
// a pair with no link.
func (n *Network) quality(src, dst NodeID) float64 {
	li := n.Topo.linkIndex(src, dst)
	if li < 0 {
		return 0
	}
	return n.linkQuality(li, src, dst)
}

// interferers is interferersAt for the frame a transmit from src would
// put on the link src→dst at start.
func (n *Network) interferers(reg *regionState, src, dst NodeID, start Time) []interferer {
	return n.interferersAt(reg, n.quality(src, dst), src, dst, start)
}
