package netsim

import (
	"runtime"
	"testing"

	"scoop/internal/metrics"
)

// pooledPayload is a recycled payload drawn from its network's free
// list, as a protocol layer's are.
type pooledPayload struct {
	Refs
	free *FreeList[pooledPayload]
	buf  [4]int
}

func (p *pooledPayload) Recycle() {
	free := p.free
	*p = pooledPayload{}
	free.Put(p)
}

// TestPoolOneListPerTypePerNetwork: Pool hands every node of a network
// the same list for a type, a different one for another type or another
// network; a list made m objects in blocks whose count grows with
// log₂(m), and a warm list's Get and Release allocate nothing.
func TestPoolOneListPerTypePerNetwork(t *testing.T) {
	net := linklessNetwork(3, 1, false)
	other := linklessNetwork(3, 1, false)
	l := Pool[pooledPayload](&net.api[0])
	switch {
	case Pool[pooledPayload](&net.api[2]) != l:
		t.Fatal("two nodes of one network got different lists of one type")
	case Pool[pooledPayload](&other.api[0]) == l:
		t.Fatal("two networks share a list")
	case any(Pool[countedPayload](&net.api[0])) == any(l):
		t.Fatal("two types share a list")
	}

	const out = 1000 // payloads held at once
	held := make([]*pooledPayload, 0, out)
	cycle := func() {
		for len(held) < out {
			p := l.Get()
			p.free = l
			Hold(p)
			held = append(held, p)
		}
		for _, p := range held {
			Release(p)
		}
		held = held[:0]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle() // the first cycle fills the list
	runtime.ReadMemStats(&after)
	// 1000 payloads: blocks of 64, 64, 128, 256 and 512, each with its
	// pointer array grown once. The race detector's runtime allocates
	// beside them, so the count holds only in a normal build.
	if objs := after.Mallocs - before.Mallocs; l.made != 1024 || objs > 10 && !raceEnabled {
		t.Fatalf("%d payloads out at once: the list made %d in %d allocations; want 1024 in 5 blocks and 5 pointer arrays",
			out, l.made, objs)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm list's Get and Release of %d payloads allocate %.1f objects; want 0", out, allocs)
	}
}

// rearmApp arms every timer id at Init and re-arms each one as it
// fires, with a delay from its own stream; a fire of timer 0 also
// replaces timer 1 and cancels timer 2, whose next fire re-arms it.
type rearmApp struct {
	api   *NodeAPI
	fires int
}

func (r *rearmApp) Init(api *NodeAPI) {
	r.api = api
	for id := 0; id <= MaxTimerID; id++ {
		api.SetTimer(id, Time(1+api.RandIntn(2000)))
	}
}
func (r *rearmApp) Receive(*Packet) {}
func (r *rearmApp) Snoop(*Packet)   {}
func (r *rearmApp) Timer(id int) {
	r.fires++
	r.api.SetTimer(id, Time(1+r.api.RandIntn(2000)))
	if id == 0 {
		r.api.SetTimer(1, Time(1+r.api.RandIntn(300)))
		r.api.CancelTimer(2)
		r.api.SetTimer(2, Time(1+r.api.RandIntn(300)))
	}
}

// TestTimerRearmZeroAllocs: on a warm network, arming, replacing,
// cancelling and firing timers allocates nothing — the arm generations
// are inline in each NodeAPI and the timer tasks come off the network's
// free list.
func TestTimerRearmZeroAllocs(t *testing.T) {
	const n = 50
	topo := &Topology{N: n, Pos: make([]Point, n)}
	net := NewNetwork(NewSimulator(7), topo, metrics.NewCounters(), DefaultParams())
	apps := make([]*rearmApp, n)
	for i := range apps {
		apps[i] = &rearmApp{}
		net.Attach(NodeID(i), apps[i])
	}
	net.Start()
	net.Sim.Run(30 * Second) // warm the timer tasks and the event queue
	fires := 0
	for _, a := range apps {
		fires += a.fires
	}
	allocs := testing.AllocsPerRun(20, func() { net.Sim.Run(net.Sim.Now() + Second) })
	if allocs != 0 {
		t.Fatalf("a second of timers on a warm %d-node network allocates %.1f objects; want 0", n, allocs)
	}
	after := 0
	for _, a := range apps {
		after += a.fires
	}
	if fires == 0 || after-fires < 20*n {
		t.Fatalf("%d fires while warming, %d while measured: the timers did not run", fires, after-fires)
	}
}
