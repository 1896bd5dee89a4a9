package netsim

import (
	"math/rand/v2"
	"testing"

	"scoop/internal/metrics"
)

// newTestRand gives topology property tests a seeded random stream.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0)) }

// recorder is a minimal App capturing deliveries for tests. Delivered
// packets are owned by the simulator and recycled after the callback
// returns, so the recorder keeps copies.
type recorder struct {
	api      *NodeAPI
	received []*Packet
	snooped  []*Packet
	timers   []int
}

func (r *recorder) Init(api *NodeAPI) { r.api = api }
func (r *recorder) Receive(p *Packet) { cp := *p; r.received = append(r.received, &cp) }
func (r *recorder) Snoop(p *Packet)   { cp := *p; r.snooped = append(r.snooped, &cp) }
func (r *recorder) Timer(id int)      { r.timers = append(r.timers, id) }

// doneFunc adapts a closure to Send's completion argument.
type doneFunc func(ok bool)

func (f doneFunc) SendDone(ok bool) { f(ok) }

// pairTopology builds a 3-node chain 0—1—2 with given qualities.
func pairTopology(q01, q10, q12, q21 float64) *Topology {
	t := NewTopology(3)
	t.Pos = []Point{{0, 0}, {1, 0}, {2, 0}}
	t.SetQuality(0, 1, q01)
	t.SetQuality(1, 0, q10)
	t.SetQuality(1, 2, q12)
	t.SetQuality(2, 1, q21)
	return t
}

func newTestNet(topo *Topology, seed int64) (*Network, []*recorder, *metrics.Counters) {
	sim := NewSimulator(seed)
	ctr := metrics.NewCounters()
	net := NewNetwork(sim, topo, ctr, DefaultParams())
	recs := make([]*recorder, topo.N)
	for i := range recs {
		recs[i] = &recorder{}
		net.Attach(NodeID(i), recs[i])
	}
	net.Start()
	return net, recs, ctr
}

func TestUnicastPerfectLink(t *testing.T) {
	net, recs, ctr := newTestNet(pairTopology(1, 1, 0, 0), 1)
	delivered := false
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, doneFunc(func(ok bool) { delivered = ok }))
	net.Sim.Run(Minute)
	if !delivered {
		t.Fatal("send callback reported failure on perfect link")
	}
	if len(recs[1].received) != 1 {
		t.Fatalf("node 1 received %d packets, want 1", len(recs[1].received))
	}
	if got := ctr.Sent(metrics.Data); got != 1 {
		t.Fatalf("counted %d data transmissions, want 1", got)
	}
	if ctr.Received(metrics.Data) != 1 {
		t.Fatalf("counted %d data receives, want 1", ctr.Received(metrics.Data))
	}
}

func TestUnicastRetransmitsOnLoss(t *testing.T) {
	// A very lossy forward link forces retries; across many trials the
	// mean attempts must exceed 1.
	var attempts, successes int64
	for seed := int64(0); seed < 40; seed++ {
		net, _, ctr := newTestNet(pairTopology(0.3, 0.9, 0, 0), seed)
		ok := false
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, doneFunc(func(b bool) { ok = b }))
		net.Sim.Run(Minute)
		attempts += ctr.Sent(metrics.Data)
		if ok {
			successes++
		}
	}
	if attempts <= 40 {
		t.Fatalf("no retransmissions observed (attempts=%d)", attempts)
	}
	if successes < 20 {
		t.Fatalf("too few successes on 0.3 link with 3 attempts: %d/40", successes)
	}
}

func TestUnicastRespectsMaxAttempts(t *testing.T) {
	topo := pairTopology(0.0001, 0.9, 0, 0) // effectively dead link
	sim := NewSimulator(3)
	ctr := metrics.NewCounters()
	p := DefaultParams()
	p.MaxAttempts = 3
	net := NewNetwork(sim, topo, ctr, p)
	for i := 0; i < 3; i++ {
		net.Attach(NodeID(i), &recorder{})
	}
	net.Start()
	var done, ok bool
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, doneFunc(func(b bool) { done, ok = true, b }))
	sim.Run(Minute)
	if !done || ok {
		t.Fatalf("done=%v ok=%v; want done and failed", done, ok)
	}
	if got := ctr.Sent(metrics.Data); got != 3 {
		t.Fatalf("attempts = %d, want exactly MaxAttempts=3", got)
	}
	if ctr.Drops(metrics.DropRetries) != 1 {
		t.Fatalf("retries drop not recorded")
	}
}

func TestBroadcastNoRetry(t *testing.T) {
	net, recs, ctr := newTestNet(pairTopology(1, 1, 1, 1), 4)
	net.api[1].Broadcast(&Packet{Class: metrics.Query, Size: 30})
	net.Sim.Run(Minute)
	if got := ctr.Sent(metrics.Query); got != 1 {
		t.Fatalf("broadcast sent %d times, want 1", got)
	}
	if len(recs[0].received) != 1 || len(recs[2].received) != 1 {
		t.Fatalf("broadcast deliveries: node0=%d node2=%d, want 1 each",
			len(recs[0].received), len(recs[2].received))
	}
}

func TestSnoopOnOverhear(t *testing.T) {
	// 0 sends unicast to 1; node 2 hears 0 as well and must snoop.
	topo := NewTopology(3)
	topo.Pos = make([]Point, 3)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	topo.SetQuality(0, 2, 1)
	topo.SetQuality(2, 0, 1)
	net, recs, _ := newTestNet(topo, 5)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(Minute)
	if len(recs[2].received) != 0 {
		t.Fatal("non-addressee got Receive")
	}
	if len(recs[2].snooped) != 1 {
		t.Fatalf("node 2 snooped %d packets, want 1", len(recs[2].snooped))
	}
	if recs[2].snooped[0].Src != 0 {
		t.Fatal("snooped packet has wrong source")
	}
}

func TestDeadNodeNeitherSendsNorReceives(t *testing.T) {
	net, recs, ctr := newTestNet(pairTopology(1, 1, 0, 0), 6)
	net.Kill(1)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(Minute)
	if len(recs[1].received) != 0 {
		t.Fatal("dead node received a packet")
	}
	// Sender still spends transmissions trying.
	if ctr.Sent(metrics.Data) == 0 {
		t.Fatal("sender did not transmit")
	}
	net.Revive(1)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(2 * Minute)
	if len(recs[1].received) != 1 {
		t.Fatalf("revived node received %d, want 1", len(recs[1].received))
	}
}

func TestDeadSenderDropsPacket(t *testing.T) {
	net, recs, _ := newTestNet(pairTopology(1, 1, 0, 0), 6)
	net.Kill(0)
	var done, ok bool
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, doneFunc(func(b bool) { done, ok = true, b }))
	net.Sim.Run(Minute)
	if !done || ok {
		t.Fatalf("dead sender: done=%v ok=%v, want done && !ok", done, ok)
	}
	if len(recs[1].received) != 0 {
		t.Fatal("packet delivered from dead sender")
	}
}

func TestScaleLinkBlocksDelivery(t *testing.T) {
	net, recs, _ := newTestNet(pairTopology(1, 1, 0, 0), 7)
	net.ScaleLink(0, 1, 0)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(Minute)
	if len(recs[1].received) != 0 {
		t.Fatal("delivery over zero-scaled link")
	}
	net.ScaleLink(0, 1, 1)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	net.Sim.Run(2 * Minute)
	if len(recs[1].received) != 1 {
		t.Fatal("delivery failed after restoring link")
	}
}

// ScaleLink on a pair no link joins — out of range, a node with itself,
// the dead direction of a one-way link — changes nothing, before Start
// as after it.
func TestScaleLinkWithoutLinkIsNoOp(t *testing.T) {
	topo := pairTopology(1, 0, 1, 1) // 0→1 is one-way; 0 and 2 are out of range
	sim := NewSimulator(7)
	net := NewNetwork(sim, topo, metrics.NewCounters(), DefaultParams())
	recs := make([]*recorder, topo.N)
	for i := range recs {
		recs[i] = &recorder{}
		net.Attach(NodeID(i), recs[i])
	}
	poke := func() {
		net.ScaleLink(0, 2, 5)
		net.ScaleLink(2, 0, 5)
		net.ScaleLink(1, 0, 5)
		net.ScaleLink(1, 1, 5)
	}
	poke()
	net.Start()
	poke()
	for _, pair := range [][2]NodeID{{0, 2}, {2, 0}, {1, 0}, {1, 1}} {
		if q := net.quality(pair[0], pair[1]); q != 0 {
			t.Fatalf("quality(%d→%d) = %v on a pair with no link", pair[0], pair[1], q)
		}
	}
	for _, pair := range [][2]NodeID{{0, 1}, {1, 2}, {2, 1}} {
		if q := net.quality(pair[0], pair[1]); q != 1 {
			t.Fatalf("quality(%d→%d) = %v; scaling a missing link touched a real one", pair[0], pair[1], q)
		}
	}
	net.api[1].Broadcast(&Packet{Class: metrics.Query, Size: 20})
	sim.Run(Minute)
	if len(recs[0].received) != 0 || len(recs[2].received) != 1 {
		t.Fatalf("broadcast from 1 reached 0 %d times and 2 %d times, want 0 and 1",
			len(recs[0].received), len(recs[2].received))
	}
}

func TestScaleAllLinksBlackout(t *testing.T) {
	net, recs, _ := newTestNet(pairTopology(1, 1, 1, 1), 8)
	net.ScaleAllLinks(0)
	net.api[0].Broadcast(&Packet{Class: metrics.Query, Size: 20})
	net.Sim.Run(Minute)
	if len(recs[1].received) != 0 {
		t.Fatal("delivery during blackout")
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	net, recs, _ := newTestNet(pairTopology(1, 1, 0, 0), 9)
	net.api[0].SetTimer(7, 100)
	net.api[0].SetTimer(8, 200)
	net.api[0].CancelTimer(8)
	net.Sim.Run(Second)
	if len(recs[0].timers) != 1 || recs[0].timers[0] != 7 {
		t.Fatalf("timers fired: %v, want [7]", recs[0].timers)
	}
}

func TestTimerReplacement(t *testing.T) {
	net, recs, _ := newTestNet(pairTopology(1, 1, 0, 0), 10)
	net.api[0].SetTimer(1, 100)
	net.api[0].SetTimer(1, 500) // replaces the first
	net.Sim.Run(Second)
	if len(recs[0].timers) != 1 {
		t.Fatalf("replaced timer fired %d times, want 1", len(recs[0].timers))
	}
}

func TestSequenceNumbersDistinct(t *testing.T) {
	// Each transmission carries a fresh per-sender sequence number;
	// deliveries may reorder (random backoff) but never duplicate.
	net, recs, _ := newTestNet(pairTopology(1, 1, 0, 0), 11)
	for i := 0; i < 5; i++ {
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 10}, nil)
	}
	net.Sim.Run(Minute)
	if len(recs[1].received) != 5 {
		t.Fatalf("received %d, want 5", len(recs[1].received))
	}
	seen := map[uint32]bool{}
	var max uint32
	for _, p := range recs[1].received {
		if seen[p.Seq] {
			t.Fatalf("duplicate sequence number %d", p.Seq)
		}
		seen[p.Seq] = true
		if p.Seq > max {
			max = p.Seq
		}
	}
	if max != 5 {
		t.Fatalf("max seq = %d, want 5 (no loss on perfect link)", max)
	}
}

func TestCollisionsDropOverlapping(t *testing.T) {
	// Hidden-terminal setup: 0 and 2 both transmit to 1 but cannot
	// hear each other, so carrier sense cannot help. With many
	// simultaneous sends some must collide.
	var collisions int64
	for seed := int64(0); seed < 30; seed++ {
		topo := pairTopology(1, 1, 0, 0)
		topo.SetQuality(2, 1, 1)
		topo.SetQuality(1, 2, 1)
		sim := NewSimulator(seed)
		ctr := metrics.NewCounters()
		p := DefaultParams()
		p.MaxAttempts = 1
		net := NewNetwork(sim, topo, ctr, p)
		for i := 0; i < 3; i++ {
			net.Attach(NodeID(i), &recorder{})
		}
		net.Start()
		for i := 0; i < 10; i++ {
			net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
			net.api[2].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
		}
		sim.Run(Minute)
		collisions += ctr.Drops(metrics.DropCollision)
	}
	if collisions == 0 {
		t.Fatal("no collisions under heavy hidden-terminal load")
	}
}

func TestCollisionsDisabled(t *testing.T) {
	topo := pairTopology(1, 1, 0, 0)
	topo.SetQuality(2, 1, 1)
	topo.SetQuality(1, 2, 1)
	sim := NewSimulator(5)
	ctr := metrics.NewCounters()
	p := DefaultParams()
	p.Collisions = false
	p.CarrierSense = false
	net := NewNetwork(sim, topo, ctr, p)
	for i := 0; i < 3; i++ {
		net.Attach(NodeID(i), &recorder{})
	}
	net.Start()
	for i := 0; i < 10; i++ {
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
		net.api[2].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
	}
	sim.Run(Minute)
	if ctr.Drops(metrics.DropCollision) != 0 {
		t.Fatal("collisions recorded while disabled")
	}
}

func TestSendToBroadcastPanics(t *testing.T) {
	net, _, _ := newTestNet(pairTopology(1, 1, 0, 0), 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: Broadcast}, nil)
}

func TestAttachAfterStartPanics(t *testing.T) {
	net, _, _ := newTestNet(pairTopology(1, 1, 0, 0), 13)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(0, &recorder{})
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() int64 {
		topo := UniformTopology(20, 5, 3.0, 99)
		sim := NewSimulator(42)
		ctr := metrics.NewCounters()
		net := NewNetwork(sim, topo, ctr, DefaultParams())
		recs := make([]*recorder, topo.N)
		for i := range recs {
			recs[i] = &recorder{}
			net.Attach(NodeID(i), recs[i])
		}
		net.Start()
		for i := 1; i < topo.N; i++ {
			for k := 0; k < 3; k++ {
				net.api[i].Send(&Packet{Class: metrics.Data, Dst: 0, Size: 36}, nil)
			}
		}
		sim.Run(Minute)
		return ctr.Sent(metrics.Data)*1000 + ctr.Received(metrics.Data)
	}
	if run() != run() {
		t.Fatal("identical seeds produced different traffic")
	}
}

func TestQueueCapDropsOnOverflow(t *testing.T) {
	topo := pairTopology(0.9, 0.9, 0, 0)
	sim := NewSimulator(21)
	ctr := metrics.NewCounters()
	p := DefaultParams()
	p.QueueCap = 4
	net := NewNetwork(sim, topo, ctr, p)
	for i := 0; i < 3; i++ {
		net.Attach(NodeID(i), &recorder{})
	}
	net.Start()
	// Enqueue far more than the cap in one instant.
	for i := 0; i < 20; i++ {
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
	}
	sim.Run(Minute)
	if ctr.Drops(metrics.DropQueue) == 0 {
		t.Fatal("no queue drops despite 20 sends into a 4-deep queue")
	}
	// But the queue keeps draining: some packets were sent.
	if ctr.Sent(metrics.Data) == 0 {
		t.Fatal("nothing transmitted")
	}
}

func TestSerializedTransmission(t *testing.T) {
	// A node transmits one frame at a time: with two queued packets
	// their airtimes must not overlap.
	topo := pairTopology(1, 1, 0, 0)
	net, recs, _ := newTestNet(topo, 22)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, nil)
	net.Sim.Run(Minute)
	if len(recs[1].received) != 2 {
		t.Fatalf("received %d", len(recs[1].received))
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	// Nodes 0 and 2 can hear each other and both want to talk to 1:
	// carrier sense must avoid most overlap, so deliveries succeed.
	topo := NewTopology(3)
	topo.Pos = make([]Point, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				topo.SetQuality(NodeID(i), NodeID(j), 0.95)
			}
		}
	}
	sim := NewSimulator(23)
	ctr := metrics.NewCounters()
	p := DefaultParams()
	p.MaxAttempts = 1 // no retries: success requires collision avoidance
	net := NewNetwork(sim, topo, ctr, p)
	for i := 0; i < 3; i++ {
		net.Attach(NodeID(i), &recorder{})
	}
	net.Start()
	ok := 0
	for i := 0; i < 20; i++ {
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 150}, doneFunc(func(b bool) {
			if b {
				ok++
			}
		}))
		net.api[2].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 150}, doneFunc(func(b bool) {
			if b {
				ok++
			}
		}))
	}
	sim.Run(Minute)
	if ok < 25 { // 40 sends on 0.95 links; CSMA should save most
		t.Fatalf("only %d/40 delivered with carrier sense", ok)
	}
}

func TestDeadNodeDrainsQueue(t *testing.T) {
	topo := pairTopology(0.9, 0.9, 0, 0)
	net, _, _ := newTestNet(topo, 24)
	results := 0
	for i := 0; i < 5; i++ {
		net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, doneFunc(func(bool) { results++ }))
	}
	net.Kill(0)
	net.Sim.Run(Minute)
	if results != 5 {
		t.Fatalf("only %d/5 callbacks fired after death", results)
	}
}
