package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"scoop/internal/metrics"
	"scoop/internal/prof"
	"scoop/internal/trace"
)

// App is the protocol logic running on one simulated node. All methods
// are invoked from the simulator's one event loop, never concurrently.
type App interface {
	// Init is called once before the simulation starts.
	Init(api *NodeAPI)
	// Receive is called when a packet addressed to this node (or to
	// Broadcast) is successfully delivered. The packet is only valid
	// for the duration of the call (see Packet ownership).
	Receive(p *Packet)
	// Snoop is called when this node overhears a packet addressed to
	// someone else, the mechanism Scoop uses to estimate link quality.
	// The packet is only valid for the duration of the call.
	Snoop(p *Packet)
	// Timer is called when a timer set via NodeAPI.SetTimer fires.
	Timer(id int)
}

// Params tunes the MAC and radio model. The zero value is not usable;
// start from DefaultParams.
type Params struct {
	// MaxAttempts bounds unicast transmissions per packet, including
	// the first (Woo-style link-layer retransmission).
	MaxAttempts int
	// AckQualityBonus scales the reverse-link probability when
	// modelling acknowledgements (short ack frames survive better
	// than full packets).
	AckQualityBonus float64
	// BackoffMin/BackoffMax bound the random CSMA delay before each
	// transmission attempt.
	BackoffMin, BackoffMax Time
	// RetryDelayMin/Max bound the delay before a retransmission.
	RetryDelayMin, RetryDelayMax Time
	// BitsPerMs is the raw channel bit rate (Mica2 CC1000: 38.6 kbps).
	// Channel-acquisition and header overheads are modelled separately
	// via TxOverhead and the CSMA backoff, which together yield the
	// paper's ~10 kbps usable application throughput.
	BitsPerMs float64
	// TxOverhead is fixed per-packet airtime (preamble, channel
	// acquisition). It doubles as the radio's detection latency: a
	// transmission becomes visible to carrier sense and the collision
	// model from the next TxOverhead grid point after it starts
	// (gridPitch, visible).
	TxOverhead Time
	// Collisions enables the overlapping-transmission collision model.
	Collisions bool
	// CarrierSense enables CSMA deferral when the channel is audibly
	// busy at the sender.
	CarrierSense bool
	// MaxDefers bounds consecutive carrier-sense deferrals; after that
	// the node transmits anyway (real CSMA gives up too).
	MaxDefers int
	// QueueCap bounds each node's outstanding outgoing packets. New
	// sends are dropped when the queue is full, modelling the small
	// TinyOS send queue — this is what the paper means by "the network
	// may become saturated …, resulting in high loss".
	QueueCap int
}

// DefaultParams returns the parameters used in all paper-reproduction
// experiments.
func DefaultParams() Params {
	return Params{
		MaxAttempts:     6,
		AckQualityBonus: 1.4,
		BackoffMin:      5 * Millisecond,
		BackoffMax:      80 * Millisecond,
		RetryDelayMin:   60 * Millisecond,
		RetryDelayMax:   250 * Millisecond,
		BitsPerMs:       38.6,
		TxOverhead:      8 * Millisecond,
		Collisions:      true,
		CarrierSense:    true,
		MaxDefers:       10,
		QueueCap:        32,
	}
}

// transmission records an in-flight frame for the collision model.
type transmission struct {
	src        NodeID
	start, end Time
}

// audible is one in-flight frame in a receiver's audible list: its
// sender, the link it arrives over — what carrier sense and the
// collision fold need to read its signal strength there in O(1) — and
// its airtime. 16 bytes, three to an audibleList.
type audible struct {
	start Time
	li    int32
	src   NodeID
	air   uint16 // end - start, ms (txDuration bounds it)
}

func (a audible) end() Time { return a.start + Time(a.air) }

// interferer is one candidate colliding frame during the collision
// fold, keyed for the deterministic (src, start) fold order.
type interferer struct {
	src   NodeID
	start Time
	qi    float64
}

// audibleSlots is how many frames a node's audible list holds inline;
// a longer list keeps the rest in the network's spill. Lists hold about
// one frame when a new one is heard, so few ever spill.
const audibleSlots = 3

// audibleList is one node's audible list: n frames, the first
// min(n, audibleSlots) inline. 64 bytes, one cache line per receiver
// of a frame (netsim.TestAudibleListLayout).
type audibleList struct {
	n     int32
	_     [12]byte
	slots [audibleSlots]audible
}

// initAudible gives every node an empty audible list, each with the
// first slot of its spill carved from one backing array, so a list
// allocates only when it outgrows four frames.
func (n *Network) initAudible() {
	nn := n.Topo.N
	n.heard, n.spill = make([]audibleList, nn), make([][]audible, nn)
	backing := make([]audible, nn)
	for id := range n.spill {
		n.spill[id] = backing[id : id+1 : id+1]
	}
}

// audibleAt returns the frames in node id's audible list: the inline
// ones, then the spilled ones.
func (n *Network) audibleAt(id NodeID) (inline, spilled []audible) {
	l := &n.heard[id]
	if l.n <= audibleSlots {
		return l.slots[:l.n], nil
	}
	return l.slots[:], n.spill[id][:l.n-audibleSlots]
}

// hear records tx as audible at node id over link li, dropping from
// id's list the frames that ended by now.
func (n *Network) hear(id NodeID, li int32, tx transmission, now Time) {
	l := &n.heard[id]
	f := audible{start: tx.start, li: li, src: tx.src, air: uint16(tx.end - tx.start)}
	if l.n <= audibleSlots {
		k := 0
		for _, old := range l.slots[:l.n] {
			if old.end() > now {
				l.slots[k] = old
				k++
			}
		}
		if k < audibleSlots {
			l.slots[k] = f
			l.n = int32(k + 1)
			return
		}
		l.n = int32(k)
	}
	n.hearSpilled(l, id, f, now)
}

// hearSpilled is hear for a list whose new frame does not fit inline:
// the same compaction over the inline slots and the spill, in order.
// A frame is written at or before the position it is read from.
func (n *Network) hearSpilled(l *audibleList, id NodeID, f audible, now Time) {
	k := 0
	for i := 0; i < int(l.n); i++ {
		var old audible
		if i < audibleSlots {
			old = l.slots[i]
		} else {
			old = n.spill[id][i-audibleSlots]
		}
		if old.end() > now {
			n.setFrame(l, id, k, old)
			k++
		}
	}
	n.setFrame(l, id, k, f)
	l.n = int32(k + 1)
}

// setFrame stores f as frame k of node id's list. When k is one past
// the spill, the spill grows so that the list's capacity doubles.
func (n *Network) setFrame(l *audibleList, id NodeID, k int, f audible) {
	if k < audibleSlots {
		l.slots[k] = f
		return
	}
	sp, j := n.spill[id], k-audibleSlots
	if j == len(sp) {
		sp = make([]audible, 2*k-audibleSlots)
		copy(sp, n.spill[id])
		n.spill[id] = sp
	}
	sp[j] = f
}

// Network binds a topology, a simulator, per-node applications and the
// message counters into one runnable radio network.
//
// The per-event hot path is allocation-free in steady state (DESIGN.md
// §12): per-link state sits in flat slices parallel to the topology's
// link array (memory follows the links, not N²), each transmission
// schedules a single pooled delivery task shared by every receiver, and
// the cloned packet it carries is recycled after the last callback
// returns.
type Network struct {
	Sim      *Simulator
	Topo     *Topology
	Counters *metrics.Counters
	Params   Params

	// OnPurge, when non-nil, is called for every packet a node failure
	// destroys without the sender's completion callback saying so. Two
	// cases: a queued packet id loses to a reboot (Network.Restart
	// drains the send queue — a rebooted mote forgets its RAM), and an
	// in-air frame unicast to id, already acked at the start of its
	// airtime, that id will miss because Network.Kill took it down
	// before the airtime ended (p.Dst == id); several such frames come
	// in (sender, sequence number) order. The experiment harness reports
	// the readings they carry as lost (p: this call only).
	OnPurge func(id NodeID, p *Packet)

	// Trace, when non-nil, receives a flight-recorder event for every
	// transmission, delivery, snoop, drop, purge and node kill/restart.
	// Hot-path emission sites are guarded by a nil check, so the
	// disabled path costs one branch and zero allocations. Set before
	// Start.
	Trace *trace.Recorder

	apps      []App
	api       []NodeAPI // one slab, every node's; node id's is live once Attach installs its app
	dead      []bool
	linkScale []float64 // per-link degradation factors, parallel to Topo.links; nil while all are 1
	burstLoss float64   // correlated burst-loss fraction (0: no burst window active)
	// eff[li] is link li's effectiveQuality, parallel to Topo.links: the
	// one array transmit, carrier sense, the collision fold and the ack
	// read. Every control-plane call that changes an input rewrites it.
	eff      []float64
	txSeq    []uint32
	nextOseq []uint64 // per-origin canonical schedule counters
	started  bool

	// The active fault windows (SetBlackout, SetPartition): at most one
	// of each. faults holds their block bits, so the per-link check on a
	// fault-free network is one compare.
	faults            uint8
	blackLo, blackHi  NodeID // blackout stripe [lo, hi]
	partitionBoundary NodeID // cut between {id < boundary} and the rest

	window Time // visibility grid pitch (gridPitch)

	// heard[id] is the list of in-flight frames audible at node id —
	// those whose sender has id among its out-links — from transmit
	// time on. Carrier sense and the collision fold scan only the
	// receiver's list, so their cost follows the radio neighbourhood,
	// not the network (DESIGN.md §12). A list is one cache line, its
	// frames past the inline slots in spill[id]. Start fills both.
	heard []audibleList
	spill [][]audible

	// The network's free lists of its own tasks, the blocks its nodes'
	// send rings grow in, and through Shared what the protocol layers'
	// nodes share: one *T by type T.
	deliveries FreeList[delivery]
	timers     FreeList[timerTask]
	steps      FreeList[stepTask]
	rings      Blocks[sendJob]
	shared     []any

	inflight []*delivery  // scheduled, not yet run (in-air frames)
	scratch  []interferer // collision-fold gather buffer
}

// NewNetwork creates a network over topo driven by sim. counters may be
// shared with other observers but must only be used from this
// simulation's goroutine. The topology is frozen here: its links are
// what the network's per-link state is parallel to, so SetQuality
// panics from now on.
func NewNetwork(sim *Simulator, topo *Topology, counters *metrics.Counters, params Params) *Network {
	topo.freeze()
	return &Network{
		Sim:      sim,
		Topo:     topo,
		Counters: counters,
		Params:   params,
		apps:     make([]App, topo.N),
		api:      make([]NodeAPI, topo.N),
		dead:     make([]bool, topo.N),
		txSeq:    make([]uint32, topo.N),
		nextOseq: make([]uint64, topo.N),
		eff:      make([]float64, len(topo.links)), // filled by Start
	}
}

// Attach installs app on node id, whose NodeAPI is the id-th of the
// network's slab: attaching allocates nothing. Must be called before
// Start.
func (n *Network) Attach(id NodeID, app App) {
	if n.started {
		panic("netsim: Attach after Start")
	}
	n.apps[id] = app
	a := &n.api[id]
	*a = NodeAPI{net: n, id: id}
	a.rng = NodeStream(&a.pcg, n.Sim.seed, id)
}

// Start initialises all attached applications. Nodes without an app
// are inert (they neither send nor receive).
func (n *Network) Start() {
	if n.started {
		panic("netsim: double Start")
	}
	n.started = true
	n.window = gridPitch(n.Params)
	n.initAudible()
	n.refreshAll()
	for i, app := range n.apps {
		if app != nil {
			app.Init(&n.api[i])
		}
	}
}

// Kill marks a node dead: it stops sending, receiving and firing
// timers. Used for failure-injection experiments. Control-plane only:
// call it between events.
func (n *Network) Kill(id NodeID) {
	n.dead[id] = true
	n.refreshInto(id)
	n.Trace.Emit(trace.Event{Kind: trace.NodeDown, Node: uint16(id)})
	if n.OnPurge == nil {
		return
	}
	// The link-layer ack was resolved when each frame went on the air;
	// delivery skips a receiver that is dead when it lands.
	var stranded []*delivery
	for _, d := range n.inflight {
		if d.p.Dst != id {
			continue
		}
		for _, s := range d.recv {
			if s.dst == id {
				stranded = append(stranded, d)
			}
		}
	}
	// The in-flight list is ordered by slot reuse, an accident of the
	// pool; the purges come in (sender, sequence number) order.
	slices.SortFunc(stranded, func(a, b *delivery) int {
		return cmp.Or(cmp.Compare(a.p.Src, b.p.Src), cmp.Compare(a.p.Seq, b.p.Seq))
	})
	for _, d := range stranded {
		n.OnPurge(id, &d.p)
	}
}

// Revive brings a dead node back (its protocol state is whatever the
// app retained).
func (n *Network) Revive(id NodeID) {
	n.dead[id] = false
	n.refreshInto(id)
}

// Restart revives a dead node and reboots its application from
// scratch: the send queue is drained, pending timers and in-flight
// transmission attempts are invalidated, and the app's Init runs
// again — a rebooted mote rejoins with fresh protocol state (routing
// table, storage index, RAM buffers), which is what churn-injection
// experiments need. Contrast Revive, which resumes the old state but
// leaves timers dead.
func (n *Network) Restart(id NodeID) {
	n.dead[id] = false
	n.refreshInto(id)
	if n.apps[id] == nil {
		return
	}
	a := &n.api[id]
	if n.OnPurge != nil {
		for k := 0; k < a.qlen; k++ {
			n.OnPurge(id, &a.slot(k).p)
		}
	}
	if n.Trace != nil {
		for k := 0; k < a.qlen; k++ {
			n.Trace.Emit(trace.Event{Kind: trace.PacketPurge, Node: uint16(id),
				Class: a.slot(k).p.Class, Cause: metrics.DropReboot, Size: int32(a.slot(k).p.Size)})
		}
		n.Trace.Emit(trace.Event{Kind: trace.NodeRestart, Node: uint16(id)})
	}
	for k := 0; k < a.qlen; k++ {
		if rc := a.slot(k).rc; rc != nil {
			Release(rc)
		}
	}
	clear(a.queue)
	a.qhead, a.qlen = 0, 0
	a.busy = false
	a.jobGen++
	for t := range a.timerGen {
		a.timerGen[t]++
	}
	n.apps[id].Init(a)
}

// ScaleLink multiplies the delivery probability of the directed link
// src→dst by f (clamped to [0,1] at use). Used to inject interference.
// A pair with no link has nothing to scale: the call is a no-op.
func (n *Network) ScaleLink(src, dst NodeID, f float64) {
	if li := n.Topo.linkIndex(src, dst); li >= 0 {
		if n.linkScale == nil {
			n.fillScale(1)
		}
		n.linkScale[li] = f
		n.eff[li] = n.effectiveQuality(li, src, dst)
	}
}

// ScaleAllLinks applies ScaleLink to every directed link, modelling a
// network-wide interference epoch.
func (n *Network) ScaleAllLinks(f float64) {
	if f == 1 {
		n.linkScale = nil
	} else {
		n.fillScale(f)
	}
	n.refreshAll()
}

// fillScale sets every link's factor to f. Only a network that scales
// a link to other than 1 holds the array.
func (n *Network) fillScale(f float64) {
	if n.linkScale == nil {
		n.linkScale = make([]float64, len(n.Topo.links))
	}
	for i := range n.linkScale {
		n.linkScale[i] = f
	}
}

// Fault-primitive block bits (Network.faults, Network.blocked). A link
// is blocked while any bit is set; the bit identifies which primitive
// to charge a typed drop to (blackout wins when both overlap).
const (
	blockBlackout uint8 = 1 << iota
	blockPartition
)

// setFault switches one primitive's bit in n.faults.
func (n *Network) setFault(bit uint8, on bool) {
	if on {
		n.faults |= bit
	} else {
		n.faults &^= bit
	}
}

// blocked returns the block bits of the active fault windows covering
// the pair src→dst (whether or not a link joins them).
func (n *Network) blocked(src, dst NodeID) uint8 {
	var m uint8
	if n.faults&blockBlackout != 0 &&
		(src >= n.blackLo && src <= n.blackHi || dst >= n.blackLo && dst <= n.blackHi) {
		m |= blockBlackout
	}
	if n.faults&blockPartition != 0 && (src < n.partitionBoundary) != (dst < n.partitionBoundary) {
		m |= blockPartition
	}
	return m
}

// SetBlackout switches a regional blackout over the node stripe
// [lo, hi] on or off: every directed link into or out of the stripe is
// blocked while the window is active. Blocked links lose frames before
// any random draw. Control-plane only (dynamics events between node
// events); windows of the same primitive must not overlap: one stripe is active
// at a time, and switching off names the stripe that was switched on.
func (n *Network) SetBlackout(lo, hi NodeID, on bool) {
	n.blackLo, n.blackHi = lo, hi
	n.setFault(blockBlackout, on)
	n.refreshAll()
}

// SetPartition switches a network partition on or off: every directed
// link between the node sets {id < boundary} and {id >= boundary} is
// blocked while the cut is active. Control-plane only; cut windows must
// not overlap.
func (n *Network) SetPartition(boundary NodeID, on bool) {
	n.partitionBoundary = boundary
	n.setFault(blockPartition, on)
	n.refreshAll()
}

// SetBurst sets the correlated burst-loss fraction: while f > 0, every
// link's delivery probability is multiplied by (1-f) on top of scripted
// loss scaling — the whole channel degrades at once, unlike the
// independent per-link ScaleLink model. f = 0 ends the window.
// Control-plane only.
func (n *Network) SetBurst(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	n.burstLoss = f
	n.refreshAll()
}

// dropCause classifies a retry-exhaustion drop on the path src→dst: a
// loss inside an active fault window is charged to the fault primitive
// (blackout over partition when both cover the link), everything else
// to plain retry exhaustion.
func (n *Network) dropCause(src, dst NodeID) metrics.DropCause {
	if int(dst) < n.Topo.N {
		switch m := n.blocked(src, dst); {
		case m&blockBlackout != 0:
			return metrics.DropBlackout
		case m&blockPartition != 0:
			return metrics.DropPartition
		}
	}
	if n.burstLoss > 0 {
		return metrics.DropBurst
	}
	return metrics.DropRetries
}

// effectiveQuality returns the delivery probability of link li, which
// runs src→dst, under the current control-plane state: 0 into a dead
// or app-less node and across an active fault window, otherwise the
// link's quality scaled by linkScale and the burst loss, clamped to
// [0,1]. A 0 link loses its frame before the per-link draw, so the
// sender's substream advances identically whatever the state elsewhere.
func (n *Network) effectiveQuality(li int32, src, dst NodeID) float64 {
	if n.dead[dst] || n.apps[dst] == nil || n.faults != 0 && n.blocked(src, dst) != 0 {
		return 0
	}
	q := n.Topo.links[li].Quality
	if n.linkScale != nil {
		q *= n.linkScale[li]
	}
	if n.burstLoss > 0 {
		q *= 1 - n.burstLoss
	}
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// refreshAll recomputes every link's effective quality. Before Start
// it has nothing to do: Start fills the array.
func (n *Network) refreshAll() {
	if !n.started {
		return
	}
	for src := NodeID(0); int(src) < n.Topo.N; src++ {
		base := n.Topo.linkBase[src]
		for k, lk := range n.Topo.OutLinks(src) {
			li := base + int32(k)
			n.eff[li] = n.effectiveQuality(li, src, lk.Dst)
		}
	}
}

// refreshInto recomputes the effective quality of every link into id
// (once Start has filled the array).
func (n *Network) refreshInto(id NodeID) {
	if !n.started {
		return
	}
	for src := NodeID(0); int(src) < n.Topo.N; src++ {
		if li := n.Topo.linkIndex(src, id); li >= 0 {
			n.eff[li] = n.effectiveQuality(li, src, id)
		}
	}
}

func (n *Network) txDuration(size int) Time {
	d := n.Params.TxOverhead + Time(float64(size*8)/n.Params.BitsPerMs)
	if d < Millisecond {
		d = Millisecond
	}
	if d > math.MaxUint16 { // audible.air
		panic(fmt.Sprintf("netsim: a %d-byte frame's airtime %d ms exceeds %d ms", size, d, math.MaxUint16))
	}
	return d
}

// oseqNext allocates the next canonical schedule-sequence value for
// events originated by node id.
func (n *Network) oseqNext(id NodeID) uint64 {
	n.nextOseq[id]++
	return n.nextOseq[id]
}

// gridPitch is the visibility grid's pitch W = max(TxOverhead, 1ms):
// the radio's detection latency. Every frame's airtime is at least
// TxOverhead, so a frame is still on the air at the first grid point
// after it starts.
func gridPitch(p Params) Time {
	return max(p.TxOverhead, Millisecond)
}

// gridFloor returns the latest visibility grid point at or before t
// for grid pitch w.
func gridFloor(t, w Time) Time { return t - t%w }

// visible reports whether a frame begun at start is visible to carrier
// sense and the collision model at virtual time `floor` =
// gridFloor(now): radios detect a frame only from the next visibility
// grid point after it starts. The rule depends on the fixed grid alone,
// not on which of two frames begun between grid points was scheduled
// first.
func visible(start, floor Time) bool { return start < floor }

// channelBusyAt reports whether any visible in-flight transmission is
// audible at node id right now (for carrier sense). The sense
// threshold is deliberately lower than the interference threshold:
// radios detect energy from transmissions too weak to decode.
func (n *Network) channelBusyAt(id NodeID, now Time) bool {
	floor := gridFloor(now, n.window)
	inline, spilled := n.audibleAt(id)
	return n.anyBusy(inline, floor, now) || n.anyBusy(spilled, floor, now)
}

// anyBusy is channelBusyAt over one part of an audible list. A node is
// never in its own list: a frame is heard only at its sender's
// out-link neighbours.
func (n *Network) anyBusy(frames []audible, floor, now Time) bool {
	for _, tx := range frames {
		if visible(tx.start, floor) && tx.end() > now && n.eff[tx.li] > 0.08 {
			return true
		}
	}
	return false
}

// collided reports whether a frame from src starting at start, arriving
// at receiver dst over a link of effective quality qs, is destroyed
// there by other visible overlapping frames.
// Destruction is probabilistic, scaled by each interferer's signal at
// the receiver, with a capture effect: a clearly stronger frame
// survives interference from a much weaker one, as real narrow-band
// radios do. The per-interferer destruction probabilities fold into
// one compound survival product in deterministic (src, start) order —
// one random draw from the sender's stream per receiver — so the
// outcome is independent of the order interference state accumulated
// in.
func (n *Network) collided(rng *rand.Rand, qs float64, src, dst NodeID, start Time) bool {
	if !n.Params.Collisions {
		return false
	}
	sc := n.interferersAt(qs, src, dst, start)
	if len(sc) == 0 {
		return false
	}
	survive := 1.0
	for _, in := range sc {
		survive *= 1 - 0.7*in.qi
	}
	return rng.Float64() < 1-survive
}

// interferersAt returns, in (src, start) order, the visible frames
// audible at dst that overlap a frame from src starting at start and
// are strong enough to destroy it; qs is the effective quality of the
// link src→dst the frame arrives over. dst's own frames are never in
// its list (anyBusy). The result aliases n.scratch.
func (n *Network) interferersAt(qs float64, src, dst NodeID, start Time) []interferer {
	floor := gridFloor(start, n.window)
	sc := n.scratch[:0]
	inline, spilled := n.audibleAt(dst)
	for _, frames := range [2][]audible{inline, spilled} {
		for _, tx := range frames {
			if tx.src == src || !visible(tx.start, floor) || tx.end() <= start {
				continue
			}
			qi := n.eff[tx.li]
			if qi <= 0.1 || qs >= 2*qi {
				continue // captured: interferer too weak to matter
			}
			sc = append(sc, interferer{src: tx.src, start: tx.start, qi: qi})
		}
	}
	if cap(sc) > cap(n.scratch) { // grown: keep the new array
		n.scratch = sc[:0]
	}
	// Insertion sort by (src, start): a node transmits one frame at a
	// time, so the key is unique; the list is tiny.
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && (sc[j].src < sc[j-1].src ||
			(sc[j].src == sc[j-1].src && sc[j].start < sc[j-1].start)); j-- {
			sc[j], sc[j-1] = sc[j-1], sc[j]
		}
	}
	return sc
}

// recvSlot is one receiver of an in-air frame.
type recvSlot struct {
	dst       NodeID
	addressee bool
}

// delivery is the pooled end-of-airtime task for one transmission: a
// single cloned packet fanned out to every receiver. Replacing the
// per-receiver clone + closure of the original design, it is what
// makes delivery allocation-free in steady state.
type delivery struct {
	net  *Network
	p    Packet   // header copy taken at transmit time
	rc   Recycled // p.Payload's reference until the last receiver returns (nil: none)
	recv []recvSlot
	idx  int // position in net.inflight
}

// Run implements Task: deliver to every receiver, in the ascending
// slot order recorded at transmit time (identical to the per-receiver
// event order of the pre-pooling design), then recycle.
func (d *delivery) Run() {
	n := d.net
	tr := n.Trace
	for _, s := range d.recv {
		if n.dead[s.dst] {
			continue // died mid-air; misses the frame
		}
		if s.addressee {
			n.Counters.CountReceive(uint16(s.dst), d.p.Class, d.p.Size)
			if tr != nil {
				tr.Packet(trace.PacketRecv, uint16(s.dst), uint16(d.p.Src), d.p.Class, d.p.Size)
			}
			n.apps[s.dst].Receive(&d.p)
		} else {
			n.Counters.CountSnoop(uint16(s.dst), d.p.Size)
			if tr != nil {
				tr.Packet(trace.PacketSnoop, uint16(s.dst), uint16(d.p.Src), d.p.Class, d.p.Size)
			}
			n.apps[s.dst].Snoop(&d.p)
		}
	}
	n.releaseDelivery(d)
}

func (n *Network) newDelivery(p *Packet) *delivery {
	d := n.deliveries.Get()
	d.net = n
	d.p = *p
	d.recv = d.recv[:0]
	d.idx = len(n.inflight)
	n.inflight = append(n.inflight, d)
	return d
}

func (n *Network) releaseDelivery(d *delivery) {
	// Swap-remove from the in-flight list.
	last := len(n.inflight) - 1
	n.inflight[d.idx] = n.inflight[last]
	n.inflight[d.idx].idx = d.idx
	n.inflight = n.inflight[:last]
	rc := d.rc
	d.p, d.rc = Packet{}, nil
	n.deliveries.Put(d)
	if rc != nil {
		Release(rc)
	}
}

// ForEachInFlight visits the header copy of every frame currently on
// the air (transmitted, not yet delivered), valid only during the call.
// Diagnostic/invariant use; control-plane only.
func (n *Network) ForEachInFlight(fn func(p *Packet)) {
	for _, d := range n.inflight {
		fn(&d.p)
	}
}

// ForEachQueued visits every packet waiting in any node's send queue,
// head job (transmission attempts in progress) first; p is valid only
// during the call. Diagnostic/invariant use; control-plane only.
func (n *Network) ForEachQueued(fn func(id NodeID, p *Packet)) {
	for i := range n.api {
		a := &n.api[i]
		for k := 0; k < a.qlen; k++ {
			fn(NodeID(i), &a.slot(k).p)
		}
	}
}

// transmit puts job's frame on the air from a's node and returns
// whether dst received it (for unicast ack modelling). It fans the
// frame out to every audible neighbour on one pooled delivery task,
// which holds a reference on a recycled payload. Every random draw
// (per-link loss, collision folds, the ack) comes from the sender's
// substream, in out-link order.
func (n *Network) transmit(a *NodeAPI, job *sendJob) bool {
	p, rc := &job.p, job.rc
	src := a.id
	n.txSeq[src]++
	p.Seq = n.txSeq[src]
	now := n.Sim.Now()
	dur := n.txDuration(p.Size)
	tx := transmission{src: src, start: now, end: now + dur}

	n.Counters.CountSend(uint16(src), p.Class, p.Size)
	if n.Trace != nil {
		n.Trace.Packet(trace.PacketSend, uint16(src), uint16(p.Dst), p.Class, p.Size)
	}

	delivered := false
	var d *delivery
	base := n.Topo.linkBase[src]
	for gi, lk := range n.Topo.OutLinks(src) {
		dst := lk.Dst
		li := base + int32(gi)
		// On the air at dst whatever becomes of the frame there. Hearing
		// it before resolving it is safe: a frame never interferes with
		// itself and nothing is visible before the next grid point.
		n.hear(dst, li, tx, now)
		q := n.eff[li]
		if q <= 0 || a.rng.Float64() >= q {
			continue
		}
		if n.collided(&a.rng, q, src, dst, tx.start) {
			if n.Trace != nil {
				n.Trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(dst),
					Peer: uint16(src), Class: p.Class, Cause: metrics.DropCollision,
					Size: int32(p.Size)})
			}
			continue
		}
		isAddressee := p.Dst == Broadcast || p.Dst == dst
		if d == nil {
			d = n.newDelivery(p)
			if d.rc = rc; rc != nil {
				Hold(rc)
			}
		}
		d.recv = append(d.recv, recvSlot{dst: dst, addressee: isAddressee})
		if isAddressee && p.Dst == dst {
			// Model the link-layer ack on the reverse link; ack frames
			// are short and more robust than data frames.
			aq := 0.0
			if rev := n.Topo.revLink[li]; rev >= 0 {
				aq = n.eff[rev] * n.Params.AckQualityBonus
			}
			if aq > 1 {
				aq = 1
			}
			if !job.requireAck || a.rng.Float64() < aq {
				delivered = true
			}
		}
		if isAddressee && p.Dst == Broadcast {
			delivered = true
		}
	}
	if d != nil {
		// Deliver at end of airtime; a node that dies mid-air misses it.
		n.Sim.scheduleOrigin(tx.end, src, n.oseqNext(src), d, prof.PhaseRadio)
	}
	return delivered
}

// sendJob is one queued outgoing frame, held by value from Send to jobDone.
type sendJob struct {
	p          Packet
	rc         Recycled // p.Payload when recycled: the slot's reference
	requireAck bool
	done       interface{ SendDone(ok bool) }
}

// timerTask is the pooled scheduled form of one armed timer.
type timerTask struct {
	a   *NodeAPI
	id  int
	gen uint64
}

func (t *timerTask) Run() {
	a, id, gen := t.a, t.id, t.gen
	a.net.timers.Put(t)
	if gen != a.timerGen[id] || a.net.dead[a.id] {
		return
	}
	a.net.apps[a.id].Timer(id)
}

// stepTask is the pooled scheduled form of one MAC attempt step
// (backoff expiry, carrier-sense re-check, or retransmission).
type stepTask struct {
	a           *NodeAPI
	gen         uint64
	try, defers int
}

func (s *stepTask) Run() {
	a, gen, try, defers := s.a, s.gen, s.try, s.defers
	a.net.steps.Put(s)
	a.step(gen, try, defers)
}

// NodeAPI is the interface a node application uses to interact with
// the radio and the virtual clock. One NodeAPI exists per node.
//
// Outgoing packets pass through a bounded FIFO send queue and are
// transmitted strictly one at a time, like a mote's single radio and
// small TinyOS message queue: the node backs off (CSMA), transmits,
// waits for the ack, retries up to MaxAttempts, then moves to the next
// queued frame. A full queue drops new sends — the saturation loss the
// paper describes.
type NodeAPI struct {
	net      *Network
	id       NodeID
	pcg      rand.PCG               // per-node substream, held inline: all protocol randomness
	rng      rand.Rand              // draws from pcg
	timerGen [MaxTimerID + 1]uint64 // per-timer-ID arm generation
	busy     bool
	jobGen   uint64 // invalidates in-flight attempt events on job change

	// The send queue is a ring: qlen jobs, the one under transmission at
	// queue[qhead]. It grows on demand up to Params.QueueCap, in the
	// network's blocks, and is kept across drains and reboots; a popped
	// slot is zeroed.
	queue       []sendJob
	qhead, qlen int
}

// slot returns the k-th queued job, head first; good until the next enqueue or pop.
func (a *NodeAPI) slot(k int) *sendJob { return &a.queue[(a.qhead+k)%len(a.queue)] }

// ID returns this node's identifier.
func (a *NodeAPI) ID() NodeID { return a.id }

// N returns the network size (including the basestation).
func (a *NodeAPI) N() int { return a.net.Topo.N }

// Now returns the current virtual time.
func (a *NodeAPI) Now() Time { return a.net.Sim.Now() }

// Clock returns the network's simulator, for a layer that reads the
// time on every frame to keep beside its state. Node code reads it and
// schedules nothing on it.
func (a *NodeAPI) Clock() *Simulator { return a.net.Sim }

// RandIntn returns a uniform int in [0,n) from the node's substream,
// whose draw order is fixed by the node's own event order (DESIGN.md
// §2).
func (a *NodeAPI) RandIntn(n int) int { return a.rng.IntN(n) }

// Send enqueues a copy of p (the caller's *Packet is free again on
// return) for unicast to p.Dst with CSMA backoff, link-layer acks and
// bounded retransmission. Every transmission attempt is counted as one
// message of p.Class (the paper's cost metric counts transmissions).
// done, if non-nil, is told of eventual link-layer success.
func (a *NodeAPI) Send(p *Packet, done interface{ SendDone(ok bool) }) {
	if p.Dst == Broadcast {
		panic("netsim: Send with broadcast destination; use Broadcast")
	}
	p.Src = a.id
	a.enqueue(p, true, done)
}

// Broadcast enqueues a copy of p for a single transmission to every
// audible neighbour, with CSMA backoff but no acknowledgement or retry.
func (a *NodeAPI) Broadcast(p *Packet) {
	p.Src = a.id
	p.Dst = Broadcast
	a.enqueue(p, false, nil)
}

func (a *NodeAPI) enqueue(p *Packet, requireAck bool, done interface{ SendDone(ok bool) }) {
	if a.qlen >= a.net.Params.QueueCap {
		if a.net.Trace != nil {
			a.net.Trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(a.id),
				Peer: uint16(p.Dst), Class: p.Class, Cause: metrics.DropQueue,
				Size: int32(p.Size)})
		}
		if done != nil {
			done.SendDone(false)
		}
		return
	}
	if a.qlen == len(a.queue) { // full ring: double it, head first
		size := min(max(4, 2*a.qlen), a.net.Params.QueueCap)
		grown := a.net.rings.Take(size)[:size]
		for k := range a.queue {
			grown[k] = *a.slot(k)
		}
		a.net.rings.Put(a.queue)
		a.queue, a.qhead = grown, 0
	}
	rc, _ := p.Payload.(Recycled)
	if rc != nil {
		Hold(rc)
	}
	a.qlen++
	*a.slot(a.qlen - 1) = sendJob{p: *p, rc: rc, requireAck: requireAck, done: done}
	if !a.busy {
		a.busy = true
		a.attempt(1, 0)
	}
}

// jobDone completes the head-of-queue job and starts the next one. The
// completion runs on a consistent ring, so it may enqueue; the slot's
// reference on a recycled payload is dropped after it, so a completion
// that re-sends the payload finds it intact.
func (a *NodeAPI) jobDone(ok bool) {
	head := a.slot(0)
	done, rc := head.done, head.rc
	*head = sendJob{} // its payload and completion are collectable
	a.qhead, a.qlen = (a.qhead+1)%len(a.queue), a.qlen-1
	a.jobGen++
	if a.qlen == 0 {
		a.busy = false
	} else {
		a.attempt(1, 0)
	}
	if done != nil {
		done.SendDone(ok)
	}
	if rc != nil {
		Release(rc)
	}
}

// scheduleStep arms one pooled MAC step after delay d.
func (a *NodeAPI) scheduleStep(d Time, gen uint64, try, defers int) {
	n := a.net
	s := n.steps.Get()
	s.a, s.gen, s.try, s.defers = a, gen, try, defers
	n.Sim.scheduleOrigin(n.Sim.Now()+d, a.id, n.oseqNext(a.id), s, prof.PhaseMAC)
}

// attempt drives the head-of-queue job through backoff, carrier sense,
// transmission and retries. Scheduled steps carry the job generation
// so a drained or completed job's stale events are inert.
func (a *NodeAPI) attempt(try, defers int) {
	backoff := a.randBetween(a.net.Params.BackoffMin, a.net.Params.BackoffMax)
	a.scheduleStep(backoff, a.jobGen, try, defers)
}

func (a *NodeAPI) step(gen uint64, try, defers int) {
	net := a.net
	if gen != a.jobGen || a.qlen == 0 {
		return
	}
	if net.dead[a.id] {
		// A dead mote delivers nothing: drain the queue, completions' sends too.
		for a.qlen > 0 {
			a.jobDone(false)
		}
		return
	}
	if net.Params.CarrierSense && defers < net.Params.MaxDefers &&
		net.channelBusyAt(a.id, net.Sim.Now()) {
		// Channel busy: defer without spending a transmission.
		a.scheduleStep(a.randBetween(net.Params.BackoffMin, net.Params.BackoffMax),
			gen, try, defers+1)
		return
	}
	j := a.slot(0)
	ok := net.transmit(a, j)
	if !j.requireAck || ok {
		a.jobDone(true)
		return
	}
	if try >= net.Params.MaxAttempts {
		cause := net.dropCause(a.id, j.p.Dst)
		if net.Trace != nil {
			net.Trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(a.id),
				Peer: uint16(j.p.Dst), Class: j.p.Class, Cause: cause,
				Size: int32(j.p.Size)})
		}
		a.jobDone(false)
		return
	}
	a.scheduleStep(a.randBetween(net.Params.RetryDelayMin, net.Params.RetryDelayMax),
		gen, try+1, defers)
}

// MaxTimerID is the highest timer id a node may arm (core's highest is
// 10): a NodeAPI holds every id's arm generation inline.
const MaxTimerID = 10

// SetTimer schedules Timer(id) to fire after d, replacing any pending
// timer with the same id; id is at most MaxTimerID.
func (a *NodeAPI) SetTimer(id int, d Time) {
	a.timerGen[id]++
	n := a.net
	t := n.timers.Get()
	t.a, t.id, t.gen = a, id, a.timerGen[id]
	n.Sim.scheduleOrigin(n.Sim.Now()+d, a.id, n.oseqNext(a.id), t, prof.PhaseMAC)
}

// CancelTimer drops any pending timer with the given id.
func (a *NodeAPI) CancelTimer(id int) { a.timerGen[id]++ }

func (a *NodeAPI) randBetween(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(a.rng.Int64N(int64(hi-lo)))
}

func (a *NodeAPI) String() string { return fmt.Sprintf("node(%d)", a.id) }
