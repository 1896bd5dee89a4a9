package core

import (
	"runtime"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/routing"
)

// sinkApp counts what it receives by class and keeps nothing but the
// last summary it heard (a shared payload) and that frame's hop count.
type sinkApp struct {
	got         [metrics.Beacon + 1]int // by class; Beacon is the last
	summary     *SummaryMsg
	summaryHops uint8
}

func (s *sinkApp) Init(*netsim.NodeAPI) {}
func (s *sinkApp) Receive(p *netsim.Packet) {
	s.got[p.Class]++
	if m, ok := p.Payload.(*SummaryMsg); ok {
		s.summary, s.summaryHops = m, p.Hops
	}
}
func (s *sinkApp) Snoop(*netsim.Packet) {}
func (s *sinkApp) Timer(int)            {}

// relayFixture is a perfect chain 0—1—2 with a Scoop node at 1 whose
// parent is node 0, a sinkApp. Node 1 neither samples nor maintains its
// tree during a test; what it relays reaches the returned sink.
func relayFixture(t *testing.T) (*netsim.Simulator, *netsim.Network, *Node, *sinkApp) {
	t.Helper()
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, chainTopo(3, 1), metrics.NewCounters(), netsim.DefaultParams())
	node := NewNode(testConfig(), &RunStats{}, idSampler, 60*netsim.Minute)
	sink := &sinkApp{}
	net.Attach(0, sink)
	net.Attach(1, node)
	net.Attach(2, &sinkApp{})
	net.Start()
	adoptParent(t, sim, node, 1)
	return sim, net, node, sink
}

// adoptParent makes node 0 node 1's parent: node 0's beacon of the
// given round reports hearing 1 well. Tree maintenance is then stopped.
func adoptParent(t *testing.T, sim *netsim.Simulator, node *Node, round uint32) {
	t.Helper()
	node.Receive(&netsim.Packet{Class: metrics.Beacon, Src: 0, Origin: 0, OriginParent: netsim.NoNode, Seq: round,
		Payload: &routing.Beacon{Round: round, Estimates: []routing.NeighborInfo{{ID: 1, Quality: 1}}}})
	sim.Run(sim.Now() + 10*netsim.Second) // the beacon's re-broadcast
	if node.tree.Parent() != 0 {
		t.Fatalf("node 1's parent is %d, want 0", node.tree.Parent())
	}
	node.api.CancelTimer(timerTree)
}

// TestForwardZeroAllocs holds the forwarding half of the payload rule
// (DESIGN.md §12) to zero allocations in steady state: node 1 relays a
// data batch, a reply and a summary from node 2 to its parent 0. Each
// relay copies a borrowed payload into a hop or reply of node 1's own,
// taken off the network's free list, and the relayed frame's last
// delivery puts it back — neither the received payload nor its readings are kept. A
// summary is shared: the relay forwards the message it heard, one hop
// further in the frame header.
func TestForwardZeroAllocs(t *testing.T) {
	sim, _, node, sink := relayFixture(t)
	batch := &DataMsg{Readings: oneReading(7, 2, 0), Owner: 0, SID: 1}
	data := &netsim.Packet{Class: metrics.Data, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: batch}
	reply := &ReplyMsg{Node: 2, Count: 3, Readings: oneReading(7, 2, 0)}
	replyPkt := &netsim.Packet{Class: metrics.Reply, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: reply}
	summary := &SummaryMsg{Node: 2}
	summaryPkt := &netsim.Packet{Class: metrics.Summary, Hops: 3, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: summary}
	seq := uint32(1)
	relay := func() {
		seq++
		data.Seq, replyPkt.Seq, summaryPkt.Seq = seq, seq, seq
		batch.Readings[0].Time++ // a new reading each time: data is deduplicated per reading,
		reply.QueryID++          // replies per query
		summary.SentAt++         // and summaries per send time
		node.Receive(data)
		node.Receive(replyPkt)
		node.Receive(summaryPkt)
		sim.Run(sim.Now() + netsim.Second)
	}
	relay() // warm the free lists, the queue ring and the MAC pools
	if allocs := testing.AllocsPerRun(100, relay); allocs != 0 {
		t.Fatalf("relaying a data hop, a reply and a summary allocates %v objects, want 0", allocs)
	}
	for _, c := range []metrics.Class{metrics.Data, metrics.Reply, metrics.Summary} {
		if sink.got[c] != 102 {
			t.Fatalf("the parent received %d %v frames, want 102", sink.got[c], c)
		}
	}
	if sink.summary != summary || sink.summaryHops != summaryPkt.Hops+1 {
		t.Fatalf("the relayed summary is %p with header Hops %d, want the received %p with Hops %d",
			sink.summary, sink.summaryHops, summary, summaryPkt.Hops+1)
	}
}

// TestRelayedSummaryZeroAllocs holds a relay's summary path through
// Node.receive to zero allocations once its dedup table and the
// network's blocks have grown: after each reboot, node 1 relays summaries
// from 200 origins new to its table, 12 in-order send times each, every
// one heard twice (the second copy a retransmission it drops), and
// allocates nothing — the table refills the arrays it kept, and the
// relay forwards the shared message it heard.
func TestRelayedSummaryZeroAllocs(t *testing.T) {
	sim, net, node, sink := relayFixture(t)
	summary := &SummaryMsg{}
	pkt := &netsim.Packet{Class: metrics.Summary, Hops: 1, Src: 2, Dst: 1, OriginParent: 2, Payload: summary}
	relayAll := func() {
		for o := netsim.NodeID(3); o < 203; o++ {
			for at := netsim.Time(1); at <= 12; at++ {
				summary.Node, summary.SentAt, pkt.Origin = o, at, o
				for range 2 {
					pkt.Seq++
					node.Receive(pkt)
				}
				sim.Run(sim.Now() + 100*netsim.Millisecond)
			}
		}
	}
	relayAll() // grows the table and the network's blocks
	// The fewest of three boots, so a runtime allocation (a collector
	// worker starting) between the two readings cannot count.
	least := ^uint64(0)
	for boot := uint32(2); boot <= 4; boot++ {
		net.Restart(1)
		adoptParent(t, sim, node, boot)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		relayAll()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 && !raceEnabled {
		t.Fatalf("relaying 2400 summaries from 200 origins after a reboot allocates %d objects, want 0", least)
	}
	if got := sink.got[metrics.Summary]; got != 4*200*12 {
		t.Fatalf("the parent received %d summaries, want %d (each once per boot)", got, 4*200*12)
	}
}
