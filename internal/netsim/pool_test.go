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

// TestBlocksCarveAndReuse: Shared hands every node of a network one
// value per type; Blocks carve arrays of exactly the capacity asked from
// blocks that double up to blockBytes, an array put back is the next
// one taken at its capacity, zeroed, Grow keeps the elements and puts
// the outgrown array back, stopping a doubling at the longest array the
// blocks carve, and an array of soloBytes or more — or past Longest,
// when that is set — is made on its own and not kept when put back.
func TestBlocksCarveAndReuse(t *testing.T) {
	net := linklessNetwork(3, 1, false)
	type arrays struct{ ints Blocks[int64] }
	b := &Shared[arrays](&net.api[0]).ints
	if &Shared[arrays](&net.api[2]).ints != b {
		t.Fatal("two nodes of one network got different shared values of one type")
	}

	// 2 000 arrays of 8: blocks of 64, 64, 128, …, 1 024 elements, each
	// as large as all before it, then 2 048 (blockBytes) at a time:
	// 16 000 elements in 13 allocations.
	held := make([][]int64, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range held {
		held[i] = append(b.Take(8), int64(i))
	}
	runtime.ReadMemStats(&after)
	if objs := after.Mallocs - before.Mallocs; b.made != 16384 || objs > 13 && !raceEnabled {
		t.Fatalf("2 000 arrays of 8 took %d elements in %d allocations, want 16 384 in 13", b.made, objs)
	}
	for i, s := range held {
		if cap(s) != 8 || s[0] != int64(i) {
			t.Fatalf("array %d: capacity %d holding %v", i, cap(s), s)
		}
	}
	if grown := append(held[0][:8], 1); &grown[0] == &held[0][0] || held[1][0] != 1 {
		t.Fatal("appending past a carved array's capacity ran into its neighbour")
	}

	b.Put(held[5])
	if s := b.Take(8); &s[:1][0] != &held[5][:1][0] || s[:1][0] != 0 {
		t.Fatal("Take did not hand out the array put back at its capacity, zeroed")
	}
	if s := b.Take(8); &s[:1][0] == &held[5][:1][0] {
		t.Fatal("an array put back once was handed out twice")
	}
	g := held[7][:8]
	for i := range g {
		g[i] = int64(i)
	}
	grown := Grow(b, g, 4)
	if cap(grown) != 16 || len(grown) != 8 || grown[7] != 7 {
		t.Fatalf("Grow of a full 8 gave capacity %d holding %v", cap(grown), grown)
	}
	if s := b.Take(8); &s[:1][0] != &g[0] {
		t.Fatal("Grow did not put the outgrown array back")
	}
	if s := Grow(b, grown, 4); &s[0] != &grown[0] {
		t.Fatal("Grow replaced an array that had room")
	}
	longest := b.soloLen()
	if s := Grow(b, b.Take(64)[:64], 4); cap(s) != longest {
		t.Fatalf("Grow of a full 64 gave capacity %d, want the longest carved array, %d", cap(s), longest)
	} else if s = Grow(b, s[:longest], 4); cap(s) != 2*longest {
		t.Fatalf("Grow of a full %d gave capacity %d, want %d", longest, cap(s), 2*longest)
	}

	solo := b.Take(soloBytes / 8)
	b.Put(solo)
	if s := b.Take(soloBytes / 8); &s[:1][0] == &solo[:1][0] {
		t.Fatal("an array of soloBytes was kept when put back")
	}
	// Longest carves longer arrays, and keeps them when put back; an
	// array past it is still made on its own.
	wide := &Blocks[int64]{Longest: 4 * soloBytes / 8}
	carved := wide.Take(2 * soloBytes / 8)
	wide.Put(carved)
	if s := wide.Take(2 * soloBytes / 8); &s[:1][0] != &carved[:1][0] {
		t.Fatal("an array under Longest was not kept when put back")
	}
	if s := Grow(wide, wide.Take(3 * soloBytes / 8)[:3*soloBytes/8], 4); cap(s) != wide.Longest {
		t.Fatalf("Grow of a full %d gave capacity %d, want Longest, %d", 3*soloBytes/8, cap(s), wide.Longest)
	}
	solo = wide.Take(8 * soloBytes / 8)
	wide.Put(solo)
	if s := wide.Take(8 * soloBytes / 8); &s[:1][0] == &solo[:1][0] {
		t.Fatal("an array past Longest was kept when put back")
	}
}
