package routing

import (
	"slices"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// Beacon is the payload of tree-join messages "repeatedly broadcast
// from the root down the tree" (paper §2.2). ETX advertises the
// sender's expected transmission count to reach the basestation, the
// path metric of De Couto et al. that Woo-style trees use.
//
// Estimates carries the sender's inbound link-quality estimates for
// its best neighbors. Radios only measure how well they *hear* a
// neighbor; to route data the sender needs the reverse direction —
// how well the neighbor hears *it* — so estimates are exchanged in
// beacons, exactly as Woo et al.'s link estimator and CTP do. A beacon
// travels as *Beacon, one object: Estimates slices its own est array.
// It is a recycled payload (netsim.Packet): after its last delivery it
// goes back to its network's free list of beacons, so a receiver
// copies what it keeps.
type Beacon struct {
	netsim.Refs
	Round     uint32  // dissemination round, incremented by the base
	Hops      uint8   // sender's tree depth
	ETX       float64 // sender's expected transmissions to the base
	Estimates []NeighborInfo
	est       [8]NeighborInfo
	free      *netsim.FreeList[Beacon]
}

// Recycle implements netsim.Recycled.
func (b *Beacon) Recycle() {
	if free := b.free; free != nil {
		*b = Beacon{}
		free.Put(b)
	}
}

// The tree parameters every run shares; the paper gives the two bounds
// and the beacon period.
const (
	// beaconInterval is the base's beacon period, and about how often a
	// node maintains its tree (paper experiments: 10 s).
	beaconInterval = 10 * netsim.Second
	// neighborCap bounds the neighbor table (paper: 32).
	neighborCap = 32
	// descendantCap bounds the descendants list (paper: 32).
	descendantCap = 32
	// evictAfter is how long a silent neighbor stays in the table.
	evictAfter = 90 * netsim.Second
	// minQuality is the link quality below which a neighbor is no
	// parent candidate.
	minQuality = 0.25
)

const (
	_ = uint(MaxNeighborCap - neighborCap) // the table fits its inline index
	_ = uint(neighborCap - 1)              // both tables hold something
	_ = uint(descendantCap - 1)
)

// Tree is the per-node routing-tree state machine. It is composed into
// a node application by value, built in place by Init: the application
// forwards heard beacons and timer ticks, and consults the tree for
// parent/descendant/neighbor routing decisions.
//
// Observe runs for every frame the node hears, 4 300 times a virtual
// second at N = 1000, so what it reads leads the struct: the network's
// clock (NodeAPI.Clock), the neighbor
// table by value with its inline id index, and the node's id — a snoop
// never loads the NodeAPI or a table header of its own, and an
// application that holds the Tree as its first field puts all of it on
// the application's first lines.
type Tree struct {
	clock     *netsim.Simulator
	Neighbors NeighborTable
	id        netsim.NodeID
	isBase    bool
	hops      uint8
	parent    netsim.NodeID

	api         *netsim.NodeAPI
	Descendants DescendantSet

	etx       float64
	round     uint32 // highest round seen (base: last round sent)
	rebroadct uint32 // last round this node re-broadcast
	timerID   int

	// outEst[i] is how well outIDs[i] hears us (our outbound delivery
	// probability to it), learned from its beacon estimate exchange and
	// consulted on every routed data message. One entry per neighbour
	// that ever reported us, in first-report order — the same flat
	// parallel-array layout as the neighbor table, bounded by the radio
	// neighbourhood rather than the network (DESIGN.md §12).
	outIDs []netsim.NodeID
	outEst []float64

	beacons *netsim.FreeList[Beacon] // the network's (netsim.Pool)
}

// Carve gives each of trees the arrays of its bounded tables — the
// neighbor table's ids and entries, the descendant set's, the outbound
// estimates' — from one slab per element type, so a network's set-up
// allocates four arrays for all its trees rather than six a tree. Init
// keeps the arrays a tree already has and carves a tree that has none
// on its own.
func Carve(trees []*Tree) {
	n := len(trees)
	ids := make([]netsim.NodeID, n*(2*neighborCap+descendantCap))
	states := make([]neighborState, n*neighborCap)
	desc := make([]descendant, n*descendantCap)
	est := make([]float64, n*neighborCap)
	for _, t := range trees {
		t.Neighbors.ids, ids = ids[:0:neighborCap], ids[neighborCap:]
		t.Neighbors.entries, states = states[:0:neighborCap], states[neighborCap:]
		t.Neighbors.evictAfter = evictAfter
		t.Descendants.origins, ids = ids[:0:descendantCap], ids[descendantCap:]
		t.Descendants.entries, desc = desc[:0:descendantCap], desc[descendantCap:]
		t.Descendants.cap = descendantCap
		// Who reports us is who hears us, about who we hear: start at
		// the neighbor table's bound (and grow past it if need be).
		t.outIDs, ids = ids[:0:neighborCap], ids[neighborCap:]
		t.outEst, est = est[:0:neighborCap], est[neighborCap:]
	}
}

// Init builds the routing state for one node in place, so a node
// application holds its Tree by value. isBase marks the tree root
// (node 0 in Scoop).
func (t *Tree) Init(api *netsim.NodeAPI, isBase bool) {
	if t.Neighbors.entries == nil {
		Carve([]*Tree{t})
	}
	t.clock, t.id, t.isBase, t.api = api.Clock(), api.ID(), isBase, api
	t.beacons = netsim.Pool[Beacon](api)
	t.Reset()
}

// Reset returns the tree to the state Init built, in place: no
// parent, no neighbours, descendants or outbound estimates, round 0 —
// what a rebooted mote knows. The tables keep their arrays
// (allocation caches, not mote RAM); the timer needs Start again.
func (t *Tree) Reset() {
	t.Neighbors.Clear()
	t.Descendants.Clear()
	t.parent, t.round, t.rebroadct, t.timerID = netsim.NoNode, 0, 0, 0
	if t.isBase {
		t.etx, t.hops = 0, 0
	} else {
		t.etx, t.hops = 1e9, 0xFF
	}
	t.outIDs, t.outEst = t.outIDs[:0], t.outEst[:0]
}

// Start arms the tree timer. The composing application must call
// OnTimer when the timer with timerID fires.
func (t *Tree) Start(timerID int) {
	t.timerID = timerID
	if t.isBase {
		// Early first beacon so trees form during the warm-up period.
		t.api.SetTimer(timerID, netsim.Time(1+t.api.RandIntn(200)))
	} else {
		t.api.SetTimer(timerID, beaconInterval+netsim.Time(t.api.RandIntn(2000)))
	}
}

// OnTimer runs periodic tree maintenance. The base starts a new beacon
// round; other nodes expire stale neighbors, abandon parents they have
// not heard from, and re-broadcast the current round's beacon at most
// once (the fast path is scheduled by onBeacon when a new round
// arrives, so the wave propagates quickly).
func (t *Tree) OnTimer() {
	if t.isBase {
		t.round++
		t.broadcastBeacon()
		t.api.SetTimer(t.timerID, beaconInterval)
		return
	}
	t.Neighbors.Expire(t.clock.Now())
	if t.parent != netsim.NoNode && !t.Neighbors.Contains(t.parent) {
		// Parent fell silent: detach and wait for the next beacon wave.
		t.parent = netsim.NoNode
		t.etx = 1e9
		t.hops = 0xFF
	}
	if t.HasRoute() && t.rebroadct < t.round {
		t.rebroadct = t.round
		t.broadcastBeacon()
	}
	t.api.SetTimer(t.timerID, beaconInterval+netsim.Time(t.api.RandIntn(2000)))
}

func (t *Tree) broadcastBeacon() {
	b := t.beacons.Get()
	b.Round, b.Hops, b.ETX, b.free = t.round, t.hops, t.etx, t.beacons
	b.Estimates = t.Neighbors.Best(b.est[:0], len(b.est))
	netsim.Hold(b)
	t.api.Broadcast(&netsim.Packet{
		Class:        metrics.Beacon,
		Origin:       t.id,
		OriginParent: t.parent,
		Size:         12 + 3*len(b.Estimates),
		Payload:      b,
	})
	netsim.Release(b)
}

// Observe must be called for every packet heard (received or snooped),
// so link qualities stay current and beacons drive parent selection.
func (t *Tree) Observe(p *netsim.Packet) {
	t.Neighbors.Observe(p.Src, p.Seq, t.clock.Now())
	if p.Class == metrics.Beacon && !t.isBase && p.Src == t.parent &&
		p.OriginParent == t.id && t.id > p.Src {
		// Our parent's own beacon advertises us as *its* parent: a
		// two-node routing cycle born from stale advertisements. The
		// higher ID detaches and rejoins on the next beacon wave. Only
		// beacons count — on forwarded traffic OriginParent describes
		// the packet's origin, not the sender, so a parent relaying a
		// grandchild's summary would otherwise look like a cycle.
		t.parent = netsim.NoNode
		t.etx = 1e9
		t.hops = 0xFF
	}
	if b, ok := p.Payload.(*Beacon); ok && p.Class == metrics.Beacon {
		t.onBeacon(p.Src, b)
	}
}

// onBeacon runs parent selection: pick the neighbor minimising
// advertised ETX plus the local inbound-link ETX. Ties and loops are
// avoided by requiring strictly better cost and a shallower advertised
// round path.
func (t *Tree) onBeacon(from netsim.NodeID, b *Beacon) {
	// Harvest the estimate exchange: if the sender reports hearing us
	// with quality q, that is our outbound delivery probability to it.
	for _, e := range b.Estimates {
		if e.ID == t.id {
			if i := slices.Index(t.outIDs, from); i >= 0 {
				t.outEst[i] = e.Quality
			} else {
				t.outIDs = append(t.outIDs, from)
				t.outEst = append(t.outEst, e.Quality)
			}
		}
	}
	if t.isBase {
		return
	}
	if b.Round > t.round {
		t.round = b.Round
	}
	q := t.OutQuality(from)
	if q < minQuality {
		return
	}
	cand := b.ETX + 1.0/q
	refresh := from == t.parent
	// Hysteresis: switching to a different parent requires a clearly
	// better path, or oscillating estimates create transient parent
	// cycles that amplify forwarded traffic.
	better := cand < t.etx*0.85
	if t.parent == netsim.NoNode {
		better = cand < t.etx
	}
	if better || refresh {
		if refresh {
			// Track our parent's current cost, better or worse.
			t.etx = cand
			t.hops = b.Hops + 1
		} else {
			t.parent = from
			t.etx = cand
			t.hops = b.Hops + 1
		}
		// Schedule our own (once-per-round) re-broadcast with generous
		// jitter so the wave propagates down the tree without a
		// synchronised collision storm every beacon round.
		if t.rebroadct < t.round {
			t.api.SetTimer(t.timerID, netsim.Time(50+t.api.RandIntn(5000)))
		}
	}
}

// OutQuality estimates this node's outbound delivery probability to
// neighbor id: the neighbor's advertised estimate when available,
// otherwise the inbound estimate discounted for asymmetry.
func (t *Tree) OutQuality(id netsim.NodeID) float64 {
	if i := slices.Index(t.outIDs, id); i >= 0 {
		return t.outEst[i]
	}
	return t.Neighbors.Quality(id) * 0.8
}

// HasRoute reports whether this node has joined the tree.
func (t *Tree) HasRoute() bool { return t.isBase || t.parent != netsim.NoNode }

// Parent returns the current parent (NoNode before joining).
func (t *Tree) Parent() netsim.NodeID { return t.parent }

// Hops returns the node's tree depth estimate.
func (t *Tree) Hops() uint8 { return t.hops }

// RecordUpstream notes that a packet from origin was routed through us
// by child, updating the descendants list.
func (t *Tree) RecordUpstream(origin, child netsim.NodeID) {
	if origin == t.id {
		return
	}
	t.Descendants.Record(origin, child, t.clock.Now())
}
