package netsim

import (
	"slices"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// ringNet is a perfect two-node link with a send queue of four; node 1
// records what it receives.
func ringNet(t *testing.T, seed int64) (*Network, *NodeAPI, *recorder, *metrics.Counters) {
	t.Helper()
	rx := &recorder{}
	net, ctr := ringNetTo(seed, rx)
	return net, &net.api[0], rx, ctr
}

// ringNetTo is ringNet with the receiving app supplied, and the flight
// recorder on when given a sink.
func ringNetTo(seed int64, rx App, sinks ...trace.Sink) (*Network, *metrics.Counters) {
	topo := NewTopology(2)
	topo.Pos = make([]Point, 2)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	p := DefaultParams()
	p.QueueCap = 4
	ctr := metrics.NewCounters()
	net := NewNetwork(NewSimulator(seed), topo, ctr, p)
	if len(sinks) > 0 {
		net.Trace = trace.New(func() int64 { return int64(net.Sim.Now()) }, sinks...)
	}
	net.Attach(0, &recorder{})
	net.Attach(1, rx)
	net.Start()
	return net, ctr
}

// purgeLog is a trace sink collecting the Size of every PacketPurge
// event, in order.
type purgeLog struct{ sizes []int }

func (l *purgeLog) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.PacketPurge {
			l.sizes = append(l.sizes, int(e.Size))
		}
	})
}
func (l *purgeLog) Close() error { return nil }

// dropLog is a trace sink counting PacketDrop events by cause. The
// Recorder hands events over a block at a time, so read it after the
// Recorder's Close.
type dropLog struct{ by [metrics.NumDropCauses]int64 }

func (l *dropLog) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.PacketDrop {
			l.by[e.Cause]++
		}
	})
}
func (l *dropLog) Close() error { return nil }

// logDrops turns net's flight recorder on with a dropLog as its sink.
func logDrops(net *Network) *dropLog {
	l := &dropLog{}
	net.Trace = trace.New(func() int64 { return int64(net.Sim.Now()) }, l)
	return l
}

// countApp counts deliveries and keeps nothing.
type countApp struct{ received int }

func (c *countApp) Init(*NodeAPI)   {}
func (c *countApp) Receive(*Packet) { c.received++ }
func (c *countApp) Snoop(*Packet)   {}
func (c *countApp) Timer(int)       {}

// sizes lists the Size tag of each packet, in order.
func sizes(ps []*Packet) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.Size
	}
	return out
}

// queued lists node 0's send queue as ForEachQueued reports it.
func queued(net *Network) []int {
	var out []int
	net.ForEachQueued(func(id NodeID, p *Packet) {
		if id == 0 {
			out = append(out, p.Size)
		}
	})
	return out
}

// The send queue is a ring (DESIGN.md §12): these are the properties
// the by-value, head-indexed representation must keep.
func TestQueueRing(t *testing.T) {
	data := func(size int) *Packet { return &Packet{Class: metrics.Data, Dst: 1, Size: size} }

	t.Run("FIFO across wrap-around", func(t *testing.T) {
		net, a, rx, _ := ringNet(t, 1)
		var want []int
		next := 20
		// Keep two or three jobs queued while eleven pass through four
		// slots: the head laps the ring more than twice.
		for len(want) < 11 {
			for a.qlen < 3 && len(want) < 11 {
				a.Send(data(next), nil)
				want = append(want, next)
				next++
			}
			if got := queued(net); !slices.Equal(got, want[len(want)-len(got):]) {
				t.Fatalf("queued = %v, want the tail of %v", got, want)
			}
			for before := a.qlen; a.qlen == before; {
				net.Sim.Run(net.Sim.Now() + Millisecond)
			}
		}
		net.Sim.Run(net.Sim.Now() + Minute)
		if got := sizes(rx.received); !slices.Equal(got, want) {
			t.Fatalf("received %v, want %v", got, want)
		}
		if len(a.queue) != 4 || a.qlen != 0 {
			t.Fatalf("ring after drain: %d slots, %d jobs; want the 4 slots kept, empty", len(a.queue), a.qlen)
		}
		for i, j := range a.queue {
			if j != (sendJob{}) {
				t.Fatalf("slot %d not zeroed after pop: %+v", i, j)
			}
		}
	})

	t.Run("drop at exactly QueueCap", func(t *testing.T) {
		drops, rx := &dropLog{}, &recorder{}
		net, _ := ringNetTo(2, rx, drops)
		a := &net.api[0]
		var verdicts []bool
		done := doneFunc(func(ok bool) { verdicts = append(verdicts, ok) })
		for i := 0; i < 4; i++ {
			a.Send(data(20+i), done)
		}
		net.Trace.Close()
		if drops.by[metrics.DropQueue] != 0 || len(verdicts) != 0 {
			t.Fatalf("dropped below QueueCap: %d drops, verdicts %v", drops.by[metrics.DropQueue], verdicts)
		}
		a.Send(data(99), done)
		net.Trace.Close()
		if drops.by[metrics.DropQueue] != 1 || !slices.Equal(verdicts, []bool{false}) {
			t.Fatalf("fifth send: %d queue drops, verdicts %v; want 1 and [false]",
				drops.by[metrics.DropQueue], verdicts)
		}
		net.Sim.Run(Minute)
		if got := sizes(rx.received); !slices.Equal(got, []int{20, 21, 22, 23}) {
			t.Fatalf("received %v", got)
		}
		if !slices.Equal(verdicts, []bool{false, true, true, true, true}) {
			t.Fatalf("verdicts %v", verdicts)
		}
	})

	t.Run("Restart purges head first", func(t *testing.T) {
		purges, rx := &purgeLog{}, &recorder{}
		net, _ := ringNetTo(3, rx, purges)
		a := &net.api[0]
		var purged []int
		net.OnPurge = func(id NodeID, p *Packet) { purged = append(purged, p.Size) }
		// Lap the ring once so the purge starts mid-array.
		for i := 0; i < 3; i++ {
			a.Send(data(10+i), nil)
		}
		net.Sim.Run(Minute)
		for i := 0; i < 4; i++ {
			a.Send(data(20+i), nil)
		}
		if a.qhead == 0 {
			t.Fatal("fixture: head did not move off slot 0")
		}
		net.Kill(0)
		net.Restart(0)
		want := []int{20, 21, 22, 23}
		if !slices.Equal(purged, want) {
			t.Fatalf("OnPurge order %v, want %v", purged, want)
		}
		if got := queued(net); len(got) != 0 {
			t.Fatalf("queue after Restart: %v", got)
		}
		// The rebooted node sends again, through the same ring.
		a.Send(data(30), nil)
		net.Sim.Run(net.Sim.Now() + Minute)
		if got := sizes(rx.received); !slices.Equal(got, []int{10, 11, 12, 30}) {
			t.Fatalf("received %v", got)
		}
		// The trace sinks hold the run once the recorder closes.
		if err := net.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(purges.sizes, want) {
			t.Fatalf("PacketPurge order %v, want %v", purges.sizes, want)
		}
	})

	t.Run("ForEachQueued includes the head job", func(t *testing.T) {
		net, a, _, ctr := ringNet(t, 4)
		net.ScaleLink(0, 1, 0) // every attempt fails: the head stays put
		for i := 0; i < 3; i++ {
			a.Send(data(20+i), nil)
		}
		for ctr.Snapshot().Data == 0 {
			net.Sim.Run(net.Sim.Now() + Millisecond)
		}
		if got := queued(net); !slices.Equal(got, []int{20, 21, 22}) {
			t.Fatalf("queued = %v with the head under retransmission", got)
		}
	})

	t.Run("the frame is copied at Send", func(t *testing.T) {
		net, a, rx, _ := ringNet(t, 5)
		p := data(20)
		a.Send(p, nil)
		p.Size, p.Dst, p.Payload = 99, 0, "reused"
		net.Sim.Run(Minute)
		if len(rx.received) != 1 || rx.received[0].Size != 20 || rx.received[0].Payload != nil {
			t.Fatalf("received %+v, want the frame as it was at Send", rx.received)
		}
	})

	// A completion that sends again while a dead node's queue drains
	// (core's data routing falls back from rule to rule this way) sees a
	// consistent ring: its frame joins the tail and is drained in turn.
	t.Run("completions enqueue during a drain", func(t *testing.T) {
		net, a, _, _ := ringNet(t, 6)
		var order []int
		var resend func(size int) doneFunc
		resend = func(size int) doneFunc {
			return func(ok bool) {
				order = append(order, size)
				if size < 100 {
					a.Send(data(size+100), resend(size+100))
				}
			}
		}
		for i := 0; i < 4; i++ {
			a.Send(data(20+i), resend(20+i))
		}
		net.Kill(0)
		net.Sim.Run(Minute)
		if want := []int{20, 21, 22, 23, 120, 121, 122, 123}; !slices.Equal(order, want) {
			t.Fatalf("completion order %v, want %v", order, want)
		}
		if a.qlen != 0 || a.busy {
			t.Fatalf("after the drain: %d jobs, busy=%v", a.qlen, a.busy)
		}
	})
}

// The send path allocates nothing per frame (DESIGN.md §12): Send with
// no completion copies the caller's packet into a ring slot, the MAC
// step and the delivery task come from their pools, and jobDone zeroes
// the slot.
func TestSendPathZeroAllocs(t *testing.T) {
	rx := &countApp{}
	net, _ := ringNetTo(7, rx)
	a := &net.api[0]
	frame := func() {
		a.Send(&Packet{Class: metrics.Data, Dst: 1, Size: 30}, nil)
		net.Sim.Run(net.Sim.Now() + Second)
	}
	frame() // warm the ring, the pools and the event heap
	if allocs := testing.AllocsPerRun(100, frame); allocs != 0 {
		t.Fatalf("send + backoff + transmit + delivery + jobDone allocates %v objects per frame, want 0", allocs)
	}
	if rx.received != 102 {
		t.Fatalf("delivered %d of 102 frames", rx.received)
	}
}

// TestFullQueueZeroAllocs: node 0 of a star, heard by every other node
// — the topology's largest out-degree — fills its send queue to
// QueueCap with broadcasts, lets it drain, and fills it again. Its ring
// grows to QueueCap slots in the network's blocks, and each delivery
// takes a receiver list of the largest out-degree when the free list
// first hands it out, so transmit never grows one: after the first
// cycle a cycle allocates nothing.
func TestFullQueueZeroAllocs(t *testing.T) {
	const leaves = 40
	topo := NewTopology(leaves + 1)
	topo.Pos = make([]Point, leaves+1)
	for i := NodeID(1); i <= leaves; i++ {
		topo.SetQuality(0, i, 1)
		topo.SetQuality(i, 0, 1)
	}
	net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
	apps := make([]countApp, leaves+1)
	for i := range apps {
		net.Attach(NodeID(i), &apps[i])
	}
	net.Start()
	a := &net.api[0]
	cycle := func() {
		for a.qlen < net.Params.QueueCap {
			a.Broadcast(&Packet{Class: metrics.Data, Size: 30})
		}
		for a.qlen > 0 {
			net.Sim.Run(net.Sim.Now() + Second)
		}
	}
	cycle() // grows the ring and the free lists
	if len(a.queue) != net.Params.QueueCap || net.maxOut != leaves {
		t.Fatalf("a ring of %d slots and a largest out-degree of %d, want %d and %d",
			len(a.queue), net.maxOut, net.Params.QueueCap, leaves)
	}
	used := 0
	for _, d := range net.deliveries.items {
		if d.net == nil {
			continue // never handed out
		}
		used++
		if cap(d.recv) != leaves {
			t.Fatalf("a delivery's receiver list holds %d slots, want the largest out-degree, %d", cap(d.recv), leaves)
		}
	}
	if used == 0 {
		t.Fatal("no delivery came back to the free list")
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 && !raceEnabled {
		t.Fatalf("filling a %d-slot queue with broadcasts heard by %d nodes and draining it allocates %v objects, want 0",
			net.Params.QueueCap, leaves, allocs)
	}
	for i := 1; i <= leaves; i++ {
		if got, want := apps[i].received, 12*net.Params.QueueCap; got != want {
			t.Fatalf("node %d received %d broadcasts, want %d", i, got, want)
		}
	}
}
