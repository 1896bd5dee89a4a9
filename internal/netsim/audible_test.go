package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// chatterApp keeps the channel contended: every node, on a jittered
// timer, either broadcasts or unicasts a frame of random size to a
// random out-neighbour. All randomness comes from the node's substream.
type chatterApp struct {
	api  *NodeAPI
	topo *Topology
}

func (c *chatterApp) Init(api *NodeAPI) {
	c.api = api
	api.SetTimer(0, Time(1+api.RandIntn(200)))
}

func (c *chatterApp) Timer(int) {
	p := &Packet{Class: metrics.Data, Size: 20 + c.api.RandIntn(100)}
	links := c.topo.OutLinks(c.api.ID())
	if len(links) == 0 || c.api.RandIntn(2) == 0 {
		c.api.Broadcast(p)
	} else {
		p.Dst = links[c.api.RandIntn(len(links))].Dst
		c.api.Send(p, nil)
	}
	c.api.SetTimer(0, Time(20+c.api.RandIntn(150)))
}

func (c *chatterApp) Receive(*Packet) {}
func (c *chatterApp) Snoop(*Packet)   {}

// frameLog is a trace sink collecting every transmitted frame.
type frameLog struct {
	airtime func(size int) Time
	frames  []transmission
}

func (l *frameLog) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.PacketSend {
			start := Time(e.T)
			l.frames = append(l.frames, transmission{src: NodeID(e.Node), start: start,
				end: start + l.airtime(int(e.Size))})
		}
	})
}
func (l *frameLog) Close() error { return nil }

const audibleRunFor = 12 * Second

// runChatter runs one scripted chatter scenario: link scaling, kills,
// a revival, a reboot, a blackout, a partition and a burst window flip
// on and off mid-run, and check (when non-nil) is called from ~500
// control events at random and grid-aligned times. After each scripted
// change, every link's effective quality must equal the reference
// formula (quality). The script depends on the seed alone, so runs
// with tracing on or off see the same schedule.
func runChatter(t *testing.T, topo *Topology, seed int64, sink trace.Sink, check func(n *Network, now Time)) *Network {
	t.Helper()
	sim := NewSimulator(seed)
	net := NewNetwork(sim, topo, metrics.NewCounters(), DefaultParams())
	if sink != nil {
		net.Trace = trace.New(func() int64 { return int64(sim.Now()) }, sink)
	}
	for i := 0; i < topo.N; i++ {
		net.Attach(NodeID(i), &chatterApp{topo: topo})
	}
	net.Start()

	script := rand.New(rand.NewSource(seed ^ 0x5c00b))
	n := topo.N
	at := func(sec float64, fn func()) {
		sim.At(Time(sec*float64(Second)), func() {
			fn()
			checkEffectiveQuality(t, net)
		})
	}
	at(1.5, func() {
		for i := 0; i < 4*n; i++ {
			net.ScaleLink(NodeID(script.Intn(n)), NodeID(script.Intn(n)), 1.5*script.Float64())
		}
	})
	down, reboot := NodeID(script.Intn(n)), NodeID(script.Intn(n))
	at(2, func() { net.Kill(down) })
	at(2.5, func() { net.Kill(reboot) })
	at(6, func() { net.Revive(down) })
	at(6.5, func() { net.Restart(reboot) })
	lo := NodeID(script.Intn(n / 2))
	hi := lo + NodeID(n/4)
	at(3, func() { net.SetBlackout(lo, hi, true) })
	at(4.5, func() { net.SetBlackout(lo, hi, false) })
	cut := NodeID(n/3 + script.Intn(n/3))
	at(5.5, func() { net.SetPartition(cut, true) })
	at(7, func() { net.SetPartition(cut, false) })
	at(8, func() { net.SetBurst(0.6) })
	at(9.5, func() { net.SetBurst(0) })
	w := gridPitch(net.Params)
	for i := 0; i < 500; i++ {
		tc := Time(script.Int63n(int64(audibleRunFor)))
		if i%5 == 0 {
			tc = gridFloor(tc, w) // exactly on a visibility grid point
		}
		sim.At(tc, func() {
			if check != nil {
				check(net, tc)
			}
		})
	}
	sim.Run(audibleRunFor)
	if net.Trace != nil {
		if err := net.Trace.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// checkEffectiveQuality fails the test unless every link's entry in the
// network's effective-quality array equals the reference formula.
func checkEffectiveQuality(t *testing.T, n *Network) {
	t.Helper()
	for src := NodeID(0); int(src) < n.Topo.N; src++ {
		for k, lk := range n.Topo.OutLinks(src) {
			li := n.Topo.linkBase[src] + int32(k)
			if got, want := n.eff[li], n.quality(src, lk.Dst); got != want {
				t.Fatalf("t=%d: effective quality of %d→%d = %v, formula %v", n.Sim.Now(), src, lk.Dst, got, want)
			}
		}
	}
}

// TestAudibleListsMatchBruteForce compares the per-receiver audible
// lists' answers with a brute-force reference that scans every frame in
// flight anywhere in the network. The reference's frame log comes from
// a traced run of the same scenario — independent of the lists. At each
// checkpoint, carrier sense is compared for every node and the
// collision fold's interferer set for every directed link. Lists that
// outgrew their inline slots are among those compared, and no node is
// ever in its own list.
func TestAudibleListsMatchBruteForce(t *testing.T) {
	topos := []struct {
		name string
		make func() *Topology
	}{
		{"grid64", func() *Topology { return GridTopology(64, 2.2, 7) }},
		{"uniform50", func() *Topology { return UniformTopology(50, 10, 3.2, 11) }},
	}
	for _, tc := range topos {
		const seed = 42
		log := &frameLog{airtime: (&Network{Params: DefaultParams()}).txDuration}
		runChatter(t, tc.make(), seed, log, nil)
		frames := log.frames
		sort.SliceStable(frames, func(i, j int) bool { return frames[i].start < frames[j].start })
		if len(frames) < 2000 {
			t.Fatalf("%s: only %d frames; scenario too quiet", tc.name, len(frames))
		}
		var maxAir Time
		for _, f := range frames {
			if d := f.end - f.start; d > maxAir {
				maxAir = d
			}
		}

		var busy, interfering, spilled int
		check := func(n *Network, now Time) {
			for id := NodeID(0); int(id) < n.Topo.N; id++ {
				if n.heard[id].n > audibleSlots {
					spilled++
				}
				inline, spill := n.audibleAt(id)
				for _, part := range [][]audible{inline, spill} {
					for _, f := range part {
						if f.src == id {
							t.Fatalf("%s t=%d: node %d is in its own audible list", tc.name, now, id)
						}
					}
				}
			}
			floor := gridFloor(now, n.window)
			// Every frame on the air now and already visible, network-wide.
			first := sort.Search(len(frames), func(i int) bool { return frames[i].start >= now-maxAir })
			var air []transmission
			for _, f := range frames[first:] {
				if f.start >= floor {
					break
				}
				if f.end > now {
					air = append(air, f)
				}
			}
			for id := NodeID(0); int(id) < n.Topo.N; id++ {
				want := false
				for _, f := range air {
					if f.src != id && n.quality(f.src, id) > 0.08 {
						want = true
					}
				}
				if got := n.channelBusyAt(id, now); got != want {
					t.Fatalf("%s t=%d: channelBusyAt(%d) = %v, brute force %v", tc.name, now, id, got, want)
				}
				if want {
					busy++
				}
			}
			for src := NodeID(0); int(src) < n.Topo.N; src++ {
				for _, lk := range n.Topo.OutLinks(src) {
					dst := lk.Dst
					qs := n.quality(src, dst)
					var want []interferer
					for _, f := range air {
						if f.src == src || f.src == dst {
							continue
						}
						if qi := n.quality(f.src, dst); qi > 0.1 && qs < 2*qi {
							want = append(want, interferer{src: f.src, start: f.start, qi: qi})
						}
					}
					sort.Slice(want, func(i, j int) bool {
						if want[i].src != want[j].src {
							return want[i].src < want[j].src
						}
						return want[i].start < want[j].start
					})
					got := n.interferers(src, dst, now)
					if !slices.Equal(got, want) {
						t.Fatalf("%s t=%d: interferers(%d→%d) = %+v, brute force %+v",
							tc.name, now, src, dst, got, want)
					}
					interfering += len(want)
				}
			}
		}
		runChatter(t, tc.make(), seed, nil, check)
		if busy < 1000 || interfering < 1000 || spilled == 0 {
			t.Fatalf("%s: %d busy answers, %d interferers, %d spilled lists; comparison has no power",
				tc.name, busy, interfering, spilled)
		}
	}
}

// pulseApp broadcasts one fixed-size frame every period, first at
// first.
type pulseApp struct {
	api           *NodeAPI
	first, period Time
	size          int
}

func (p *pulseApp) Init(api *NodeAPI) {
	p.api = api
	if p.period > 0 {
		api.SetTimer(0, p.first)
	}
}
func (p *pulseApp) Timer(int) {
	p.api.Broadcast(&Packet{Class: metrics.Data, Size: p.size})
	p.api.SetTimer(0, p.period)
}
func (p *pulseApp) Receive(*Packet) {}
func (p *pulseApp) Snoop(*Packet)   {}

// TestCollisionVisibilityGridEdge pins the radio's detection latency
// at the collision fold: a frame is visible from the first grid point
// after it starts. Sender S and interferer I both reach receiver R; S
// cannot hear I, so carrier sense never separates them. When I starts
// 1 ms before the last grid point before S's frame, it is visible and
// destroys some of S's frames at R; when it starts on that grid point
// it is not visible yet and destroys none.
func TestCollisionVisibilityGridEdge(t *testing.T) {
	w := gridPitch(DefaultParams())
	const backoff = 5 * Millisecond
	const rounds = 200
	period := 25 * w
	sStart := 100 * w // on a grid point
	run := func(iStart Time) (collisions int64) {
		topo := NewTopology(4)
		topo.Pos = []Point{{0, 0}, {1, 0}, {5, 0}, {6, 0}} // S, filler, R, I
		const S, R, I = 0, 2, 3
		topo.SetQuality(S, R, 1)
		topo.SetQuality(I, R, 0.9)
		sim := NewSimulator(3)
		params := DefaultParams()
		params.BackoffMin, params.BackoffMax = backoff, backoff // frames start exactly timer+backoff
		counters := metrics.NewCounters()
		net := NewNetwork(sim, topo, counters, params)
		net.Attach(S, &pulseApp{first: sStart - backoff, period: period, size: 30})
		net.Attach(1, &pulseApp{})
		net.Attach(R, &pulseApp{})
		net.Attach(I, &pulseApp{first: iStart - backoff, period: period, size: 120})
		drops := logDrops(net)
		net.Start()
		sim.Run(sStart + rounds*period - w)
		net.Trace.Close()
		return drops.by[metrics.DropCollision]
	}
	for _, c := range []struct {
		name    string
		iStart  Time
		collide bool
	}{
		{"interferer started before the last grid point", sStart - 1, true},
		{"interferer started on the last grid point", sStart, false},
	} {
		coll := run(c.iStart)
		if c.collide && (coll < rounds/3 || coll > rounds) {
			t.Fatalf("%s: %d collisions in %d rounds, want about 0.63 of them", c.name, coll, rounds)
		}
		if !c.collide && coll != 0 {
			t.Fatalf("%s: %d collisions from a frame not yet visible", c.name, coll)
		}
	}
}

// TestGridPitch pins the visibility grid's pitch: the radio's fixed
// per-frame overhead, floored at one millisecond, independent of
// everything else in Params.
func TestGridPitch(t *testing.T) {
	p := DefaultParams()
	if w := gridPitch(p); w != p.TxOverhead {
		t.Fatalf("default pitch = %d, want TxOverhead %d", w, p.TxOverhead)
	}
	p.TxOverhead = 0
	if w := gridPitch(p); w != Millisecond {
		t.Fatalf("zero-overhead pitch = %d, want the 1ms floor", w)
	}
	p.TxOverhead = 3 * Millisecond
	if w := gridPitch(p); w != 3*Millisecond {
		t.Fatalf("pitch = %d, want 3ms", w)
	}
}

// TestGridMath checks gridFloor across edges: the largest multiple of w
// at or before t.
func TestGridMath(t *testing.T) {
	const w = 8 * Millisecond
	cases := []struct{ t, floor Time }{
		{0, 0}, {1, 0}, {7, 0}, {8, 8}, {9, 8}, {16, 16}, {8001, 8000},
	}
	for _, c := range cases {
		if got := gridFloor(c.t, w); got != c.floor {
			t.Errorf("gridFloor(%d) = %d, want %d", c.t, got, c.floor)
		}
	}
}
