package netsim

import "sort"

// Partition is a K-way spatial split of a topology for the
// region-parallel event loop (DESIGN.md §18). Each node belongs to
// exactly one region; regions are balanced contiguous stripes of the
// X-sorted node list, so nearby nodes — the ones whose radios interact
// — mostly share a region and cross-region traffic stays boundary
// traffic.
//
// The partition is deterministic in the topology alone (positions and
// IDs; no RNG), so every K and every GOMAXPROCS derives the same node→
// region map for a given topology.
type Partition struct {
	K      int
	region []int32 // node → region
	sizes  []int   // region → node count
}

// PartitionTopology splits topo into k balanced stripes by node
// position, sorted on (X, Y, id). k is clamped to [1, N]: asking for
// more regions than nodes degenerates to one node per region.
func PartitionTopology(topo *Topology, k int) *Partition {
	n := topo.N
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := topo.Pos[order[a]], topo.Pos[order[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return order[a] < order[b]
	})
	p := &Partition{K: k, region: make([]int32, n), sizes: make([]int, k)}
	// Balanced contiguous stripes: the first n%k stripes get one extra
	// node, so sizes differ by at most one.
	base, extra := n/k, n%k
	idx := 0
	for r := 0; r < k; r++ {
		sz := base
		if r < extra {
			sz++
		}
		for j := 0; j < sz; j++ {
			p.region[order[idx]] = int32(r)
			idx++
		}
		p.sizes[r] = sz
	}
	return p
}

// RegionOf returns the region node id belongs to.
func (p *Partition) RegionOf(id NodeID) int { return int(p.region[id]) }

// Size returns region r's node count.
func (p *Partition) Size(r int) int { return p.sizes[r] }

// BoundaryNodes returns, in ascending ID order, the nodes with at least
// one audible link (either direction) to a node in another region —
// the nodes whose transmissions become cross-region boundary events.
func (p *Partition) BoundaryNodes(topo *Topology) []NodeID {
	boundary := make([]bool, topo.N)
	for i := 0; i < topo.N; i++ {
		for _, lk := range topo.OutLinks(NodeID(i)) {
			if p.region[i] != p.region[lk.Dst] {
				boundary[i], boundary[lk.Dst] = true, true
			}
		}
	}
	var out []NodeID
	for i, b := range boundary {
		if b {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// LookaheadWindow derives the conservative lookahead window from the
// radio parameters: the visibility grid pitch W = max(TxOverhead, 1ms).
// Every frame's airtime is at least TxOverhead (plus payload time), so
// a frame delivering inside the window [T, T+W) necessarily started
// before T — state all regions exchanged at the last barrier. The
// window depends only on Params, never on K, which is what keeps the
// windowed visibility rule (gridFloor below) K-independent.
func LookaheadWindow(p Params) Time {
	w := p.TxOverhead
	if w < Millisecond {
		w = Millisecond
	}
	return w
}

// gridFloor returns the latest visibility grid point at or before t
// for grid pitch w.
func gridFloor(t, w Time) Time { return t - t%w }

// gridNext returns the first grid point strictly after t.
func gridNext(t, w Time) Time { return gridFloor(t, w) + w }
