package core

import (
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/routing"
)

// sinkApp counts what it receives by class and keeps nothing.
type sinkApp struct{ got [metrics.NumClasses]int }

func (s *sinkApp) Init(*netsim.NodeAPI)     {}
func (s *sinkApp) Receive(p *netsim.Packet) { s.got[p.Class]++ }
func (s *sinkApp) Snoop(*netsim.Packet)     {}
func (s *sinkApp) Timer(int)                {}

// TestForwardZeroAllocs holds the forwarding half of the payload rule
// (DESIGN.md §12) to zero allocations in steady state: node 1 relays a
// data batch and a reply from node 2 to its parent 0. Each relay copies
// the borrowed payload into a hop or reply of node 1's own, taken off
// its free list, and the relayed frame's last delivery puts it back —
// neither the received payload nor its readings are kept.
func TestForwardZeroAllocs(t *testing.T) {
	topo := chainTopo(3, 1)
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	cfg := testConfig()
	cfg.Tree.BeaconInterval = 60 * netsim.Minute // no tree maintenance while measuring
	node := NewNode(cfg, &RunStats{}, idSampler, 60*netsim.Minute)
	sink := &sinkApp{}
	net.Attach(0, sink)
	net.Attach(1, node)
	net.Attach(2, &sinkApp{})
	net.Start()

	// Node 0's beacon makes it node 1's parent: it reports hearing 1 well.
	node.Receive(&netsim.Packet{Class: metrics.Beacon, Src: 0, Origin: 0, OriginParent: netsim.NoNode, Seq: 1,
		Payload: &routing.Beacon{Round: 1, Estimates: []routing.NeighborInfo{{ID: 1, Quality: 1}}}})
	sim.Run(10 * netsim.Second) // the beacon's re-broadcast
	if node.tree.Parent() != 0 {
		t.Fatalf("node 1's parent is %d, want 0", node.tree.Parent())
	}

	data := &netsim.Packet{Class: metrics.Data, Src: 2, Dst: 1, Origin: 2, OriginParent: 1,
		Payload: &DataMsg{Readings: oneReading(7, 2, 0), Owner: 0, SID: 1}}
	reply := &ReplyMsg{Node: 2, Count: 3, Readings: oneReading(7, 2, 0)}
	replyPkt := &netsim.Packet{Class: metrics.Reply, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: reply}
	seq := uint32(1)
	relay := func() {
		seq++
		data.Seq, replyPkt.Seq = seq, seq
		reply.QueryID++ // a new query each time: replies are deduplicated per query
		node.Receive(data)
		node.Receive(replyPkt)
		sim.Run(sim.Now() + netsim.Second)
	}
	relay() // warm the free lists, the queue ring and the MAC pools
	if allocs := testing.AllocsPerRun(100, relay); allocs != 0 {
		t.Fatalf("relaying a data hop and a reply allocates %v objects, want 0", allocs)
	}
	if sink.got[metrics.Data] != 102 || sink.got[metrics.Reply] != 102 {
		t.Fatalf("the parent received %d data and %d reply frames, want 102 each",
			sink.got[metrics.Data], sink.got[metrics.Reply])
	}
}
