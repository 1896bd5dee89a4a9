package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// shouldRelayWalk is shouldRelay as it was before it probed the bitmap
// from the tables' side: walk every targeted bit and look it up in the
// neighbor table and the descendant set. Kept as the reference.
func shouldRelayWalk(n *Node, bm *Bitmap) bool {
	me := n.api.ID()
	for wi, w := range bm.w {
		for w != 0 {
			id := netsim.NodeID(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if id == me {
				continue
			}
			if n.tree.Neighbors.Contains(id) {
				return true
			}
			if _, ok := n.tree.Descendants.NextHop(id); ok {
				return true
			}
		}
	}
	return false
}

// TestShouldRelayMatchesBitmapWalk holds the table-side relay test to
// the bitmap walk it replaced: random target bitmaps against random
// neighbor and descendant tables at three network sizes, with the
// corners — nothing targeted, only this node targeted, this node in its
// own tables, empty tables, bitmaps shorter than the ids the tables
// hold — and both answers seen.
func TestShouldRelayMatchesBitmapWalk(t *testing.T) {
	for _, size := range []int{63, 250, 1000} {
		r := rand.New(rand.NewSource(int64(size)))
		relayed := [2]int{}
		var net *netsim.Network
		var node *Node
		var me netsim.NodeID
		for round := 0; round < 300; round++ {
			if round%50 == 0 { // a new node id now and then
				me = netsim.NodeID(1 + r.Intn(size-1))
				net = netsim.NewNetwork(netsim.NewSimulator(1), linklessTopology(size), metrics.NewCounters(), netsim.DefaultParams())
				node = NewNode(DefaultConfig(0, 100), &RunStats{}, idSampler, netsim.Minute)
				net.Attach(me, node)
				net.Start()
			} else {
				net.Restart(me) // a reboot: empty tables
			}

			// Tables: empty, sparse or full, over the whole id range or
			// only its upper half; sometimes holding the node itself.
			anyID := func() netsim.NodeID {
				if round%4 == 0 {
					return netsim.NodeID(size/2 + r.Intn(size-size/2))
				}
				return netsim.NodeID(r.Intn(size))
			}
			for k := []int{0, 1, 5, 40}[r.Intn(4)]; k > 0; k-- {
				node.tree.Neighbors.Observe(anyID(), 1, netsim.Time(k))
			}
			for k := []int{0, 1, 5, 40}[r.Intn(4)]; k > 0; k-- {
				node.tree.Descendants.Record(anyID(), anyID(), netsim.Time(k))
			}
			if r.Intn(5) == 0 {
				node.tree.Neighbors.Observe(me, 1, 0)
				node.tree.Descendants.Record(me, anyID(), 0)
			}

			for q := 0; q < 40; q++ {
				var bm Bitmap
				switch q % 5 {
				case 0: // nothing targeted
				case 1: // only this node
					bm.Set(me)
				case 2: // a few low ids: a bitmap shorter than the tables' ids
					for k := 1 + r.Intn(3); k > 0; k-- {
						bm.Set(netsim.NodeID(r.Intn(min(size, 64))))
					}
				case 3: // a handful anywhere
					for k := 1 + r.Intn(6); k > 0; k-- {
						bm.Set(netsim.NodeID(r.Intn(size)))
					}
				default: // most of the network
					for id := 0; id < size; id++ {
						if r.Intn(10) != 0 {
							bm.Set(netsim.NodeID(id))
						}
					}
				}
				got, want := node.shouldRelay(&bm), shouldRelayWalk(node, &bm)
				if got != want {
					t.Fatalf("N=%d me=%d, %d targets: shouldRelay = %v, bitmap walk says %v",
						size, me, bm.Count(), got, want)
				}
				if want {
					relayed[1]++
				} else {
					relayed[0]++
				}
			}
		}
		if relayed[0] == 0 || relayed[1] == 0 {
			t.Fatalf("N=%d: relay answers no/yes = %v; the test must see both", size, relayed)
		}
	}
}
