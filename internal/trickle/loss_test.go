package trickle

import (
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// gossiper is a minimal dissemination app: every held key is under
// Trickle; hearing a new key adopts it, hearing a held key feeds
// suppression. This is exactly the path new index epochs ride from
// the basestation across lossy links (core wraps the same package).
type gossiper struct {
	tr   Trickle
	api  *netsim.NodeAPI
	cfg  Config
	held map[Key]bool
}

const gossipTimer = 7

type keyMsg struct{ k Key }

func newGossiper(cfg Config) *gossiper {
	return &gossiper{cfg: cfg, held: make(map[Key]bool)}
}

func (g *gossiper) Init(api *netsim.NodeAPI) {
	g.api = api
	g.tr.Init(api, gossipTimer, g.cfg, sendFunc(func(k Key) {
		g.api.Broadcast(&netsim.Packet{
			Class:   metrics.Mapping,
			Origin:  g.api.ID(),
			Size:    24,
			Payload: &keyMsg{k: k},
		})
	}))
}

func (g *gossiper) add(k Key) {
	g.held[k] = true
	g.tr.Add(k)
}

func (g *gossiper) Receive(p *netsim.Packet) {
	m, ok := p.Payload.(*keyMsg)
	if !ok {
		return
	}
	if g.held[m.k] {
		g.tr.Heard(m.k)
		return
	}
	g.add(m.k)
}

func (g *gossiper) Snoop(p *netsim.Packet) {}
func (g *gossiper) Timer(id int) {
	if id == gossipTimer {
		g.tr.OnTimer()
	}
}

// lossyLine builds a 0—1—…—(n-1) line whose every link delivers with
// probability q, and attaches a gossiper per node.
func lossyLine(n int, q float64, cfg Config, seed int64) (*netsim.Simulator, []*gossiper) {
	topo := netsim.NewTopology(n)
	topo.Pos = make([]netsim.Point, n)
	for i := range topo.Pos {
		topo.Pos[i] = netsim.Point{X: float64(i)}
	}
	for i := 0; i+1 < n; i++ {
		topo.SetQuality(netsim.NodeID(i), netsim.NodeID(i+1), q)
		topo.SetQuality(netsim.NodeID(i+1), netsim.NodeID(i), q)
	}
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	gs := make([]*gossiper, n)
	for i := range gs {
		gs[i] = newGossiper(cfg)
		net.Attach(netsim.NodeID(i), gs[i])
	}
	net.Start()
	return sim, gs
}

// A single item injected at one end of a lossy line reaches the far
// end: Trickle's periodic retransmission rides out per-broadcast
// loss. This is the redissemination property index epochs depend on.
func TestDisseminationSurvivesLinkLoss(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 8 * netsim.Second, K: 1}
	sim, gs := lossyLine(5, 0.5, cfg, 11)
	gs[0].add(42)
	sim.Run(2 * netsim.Minute)
	for i, g := range gs {
		if !g.held[42] {
			t.Fatalf("node %d never received the item over 50%%-loss links", i)
		}
	}
}

// A second generation injected mid-run still propagates end to end
// under loss — the mid-run index-epoch scenario.
func TestNewGenerationPropagatesUnderLoss(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 8 * netsim.Second, K: 1}
	sim, gs := lossyLine(5, 0.6, cfg, 12)
	gs[0].add(1)
	sim.Run(time90s())
	for i, g := range gs {
		if !g.held[1] {
			t.Fatalf("node %d missed generation 1", i)
		}
	}
	// New epoch appears at the source while the old one is in steady
	// state everywhere.
	gs[0].add(2)
	sim.Run(sim.Now() + time90s())
	for i, g := range gs {
		if !g.held[2] {
			t.Fatalf("node %d missed generation 2", i)
		}
	}
}

func time90s() netsim.Time { return 90 * netsim.Second }

// MaxRounds retires an item, and adding it again revives it — the
// inconsistency path nodes use when a neighbor gossips a stale
// generation (core.resetChunks).
func TestAddRevivesRetiredItemUnderLoss(t *testing.T) {
	cfg := Config{TauLow: 250 * netsim.Millisecond, TauHigh: netsim.Second, K: 1, MaxRounds: 3}
	sim, gs := lossyLine(2, 1, cfg, 13)
	gs[0].add(9)
	sim.Run(30 * netsim.Second)
	if !gs[1].held[9] {
		t.Fatal("item never crossed a perfect link")
	}
	if len(gs[0].tr.items) != 0 {
		t.Fatalf("the sender still holds %d items after MaxRounds", len(gs[0].tr.items))
	}
	// Retired: long silence follows. Drop the receiver's copy and
	// add the key at the sender again; the item must cross again
	// despite loss.
	delete(gs[1].held, 9)
	gs[1].tr.Remove(9)
	gs[0].tr.Add(9)
	sim.Run(sim.Now() + 30*netsim.Second)
	if !gs[1].held[9] {
		t.Fatal("adding the retired item again did not redisseminate it")
	}
}

// Suppression still works under loss: with K=1 and two senders on a
// good link, total transmissions stay near the lone-sender case
// rather than doubling.
func TestSuppressionUnderLoss(t *testing.T) {
	countSends := func(q float64, seed int64) int64 {
		topo := netsim.NewTopology(2)
		topo.Pos = make([]netsim.Point, 2)
		topo.SetQuality(0, 1, q)
		topo.SetQuality(1, 0, q)
		sim := netsim.NewSimulator(seed)
		ctr := metrics.NewCounters()
		net := netsim.NewNetwork(sim, topo, ctr, netsim.DefaultParams())
		cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 4 * netsim.Second, K: 1}
		a, b := newGossiper(cfg), newGossiper(cfg)
		net.Attach(0, a)
		net.Attach(1, b)
		net.Start()
		a.add(7)
		b.add(7)
		sim.Run(time90s())
		return int64(ctr.Snapshot().Mapping)
	}
	good := countSends(1.0, 21)
	lossy := countSends(0.4, 22)
	if good <= 0 || lossy <= 0 {
		t.Fatal("no gossip traffic recorded")
	}
	// Under loss, suppression sees fewer copies and sends more — but
	// it must not collapse into unsuppressed flooding (>3x).
	if lossy > 3*good {
		t.Fatalf("loss destroyed suppression: %d sends vs %d on a clean link", lossy, good)
	}
}
