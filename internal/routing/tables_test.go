package routing

import "scoop/internal/netsim"

// init builds an empty table in place bounded to capacity entries, in
// [1, MaxNeighborCap], for tests of other capacities than the one Carve
// gives every tree.
func (t *NeighborTable) init(capacity int, evictAfter netsim.Time) {
	*t = NeighborTable{
		evictAfter: evictAfter,
		ids:        make([]netsim.NodeID, 0, capacity),
		entries:    make([]neighborState, 0, capacity),
	}
}

// newDescendantSet returns a set bounded to capacity entries, for tests
// of other capacities than the one Carve gives every tree.
func newDescendantSet(capacity int) *DescendantSet {
	return &DescendantSet{
		cap:     capacity,
		origins: make([]netsim.NodeID, 0, capacity),
		entries: make([]descendant, 0, capacity),
	}
}
