package netsim

import (
	"fmt"
	"math/rand/v2"

	"scoop/internal/dense"
	"scoop/internal/metrics"
	"scoop/internal/prof"
	"scoop/internal/trace"
)

// App is the protocol logic running on one simulated node. All methods
// are invoked from the node's region event loop (never concurrently
// with each other; in a region-parallel run, different regions' apps
// run concurrently but an app only ever runs on its own region's
// goroutine).
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
	// model from the next TxOverhead grid point after it starts (the
	// region-parallel lookahead window, DESIGN.md §18).
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

// audible is one in-flight frame in a receiver's heard list, with the
// index of the link it arrives over — what carrier sense and the
// collision fold need to read its signal strength there in O(1). (li
// sits in src's padding: 24 bytes, like the bare transmission.)
type audible struct {
	src        NodeID
	li         int32
	start, end Time
}

// interferer is one candidate colliding frame during the collision
// fold, keyed for the deterministic (src, start) fold order.
type interferer struct {
	src   NodeID
	start Time
	qi    float64
}

// outDelivery is one cross-region packet delivery waiting for the next
// barrier: the coordinator converts it into a pooled delivery task in
// the target region's heap. It carries the same canonical (origin,
// oseq) key as the sender-region copy, so the merged trace interleaves
// all of a transmission's receiver callbacks in global slot order.
type outDelivery struct {
	to     int32 // target region
	at     Time  // end of airtime
	origin NodeID
	oseq   uint64
	p      Packet
	recv   []recvSlot
}

// regionState is one region of the (possibly K=1) partitioned engine:
// its event heap and clock, its counters and trace shard, its share of
// the radio state, and its task pools. With K=1 the single region
// aliases the Network's own simulator, counters and recorder, so the
// serial engine is byte-for-byte the pre-partition code path.
type regionState struct {
	id       int
	sim      *Simulator
	counters *metrics.Counters
	trace    *trace.Recorder

	// heard[id] is this region's view of the in-flight frames audible
	// at node id — those whose sender has id among its out-links: the
	// region's own frames from transmit time, other regions' ghosts from
	// the barrier after they start. Carrier sense and the collision
	// fold scan only the receiver's list, so their cost follows the
	// radio neighbourhood, not the network (DESIGN.md §12). The view is
	// per region because a cross-region receiver's collision is resolved
	// on the sender's goroutine (§18). asks[id] marks the nodes this
	// region can ever ask about — its own and their out-link neighbours
	// — so the barrier skips ghosts nobody here could hear of (nil when
	// serial: there are no ghosts).
	heard  [][]audible
	asks   []bool
	ghosts []transmission // local frames started since the last barrier
	outbox []outDelivery  // cross-region deliveries since the last barrier

	delivPool []*delivery
	timerPool []*timerTask
	stepPool  []*stepTask
	inflight  []*delivery  // scheduled, not yet run (in-air frames)
	scratch   []interferer // collision-fold gather buffer
}

// hear records tx as audible at node id over link li, dropping from
// id's list the frames that ended by now.
func (r *regionState) hear(id NodeID, li int32, tx transmission, now Time) {
	l := r.heard[id]
	kept := l[:0]
	for _, old := range l {
		if old.end > now {
			kept = append(kept, old)
		}
	}
	r.heard[id] = append(kept, audible{src: tx.src, li: li, start: tx.start, end: tx.end})
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
	// before the airtime ended (p.Dst == id). Invariant-checking
	// harnesses use it to keep loss accounting conservative (p: this call only).
	OnPurge func(id NodeID, p *Packet)

	// Trace, when non-nil, receives a flight-recorder event for every
	// transmission, delivery, snoop, drop, purge and node kill/restart.
	// Hot-path emission sites are guarded by a nil check, so the
	// disabled path costs one branch and zero allocations. Set before
	// Start (and before SetRegions when partitioning).
	Trace *trace.Recorder

	apps      []App
	api       []*NodeAPI
	dead      []bool
	linkScale []float64 // per-link degradation factors, parallel to Topo.links
	burstLoss float64   // correlated burst-loss fraction (0: no burst window active)
	txSeq     []uint32
	nextOseq  []uint64 // per-origin canonical schedule counters
	started   bool

	// The active fault windows (SetBlackout, SetPartition): at most one
	// of each. faults holds their block bits, so the per-link check on a
	// fault-free network is one compare.
	faults            uint8
	blackLo, blackHi  NodeID // blackout stripe [lo, hi]
	partitionBoundary NodeID // cut between {id < boundary} and the rest

	nregions int // requested K (0/1: serial)
	part     *Partition
	regs     []*regionState
	window   Time // visibility grid pitch = conservative lookahead
}

// NewNetwork creates a network over topo driven by sim. counters may be
// shared with other observers but must only be used from this
// simulation's goroutine. The topology is frozen here: its links are
// what the network's per-link state is parallel to, so SetQuality
// panics from now on.
func NewNetwork(sim *Simulator, topo *Topology, counters *metrics.Counters, params Params) *Network {
	topo.freeze()
	n := &Network{
		Sim:       sim,
		Topo:      topo,
		Counters:  counters,
		Params:    params,
		apps:      make([]App, topo.N),
		api:       make([]*NodeAPI, topo.N),
		dead:      make([]bool, topo.N),
		txSeq:     make([]uint32, topo.N),
		nextOseq:  make([]uint64, topo.N),
		linkScale: make([]float64, len(topo.links)),
	}
	n.ScaleAllLinks(1)
	return n
}

// SetRegions partitions the network into k parallel regions (DESIGN.md
// §18) and builds the per-region engines immediately, so callers can
// wire per-region observers (stats shards, profilers) before attaching
// apps. k ≤ 1 — the default for networks that never call SetRegions —
// keeps the serial single-heap engine. Call after setting Trace and
// before Attach/Start.
func (n *Network) SetRegions(k int) {
	if n.started {
		panic("netsim: SetRegions after Start")
	}
	if n.regs != nil {
		panic("netsim: SetRegions called twice")
	}
	n.nregions = k
	n.buildRegions()
}

func (n *Network) buildRegions() {
	k := n.nregions
	if k < 1 {
		k = 1
	}
	n.window = LookaheadWindow(n.Params)
	n.part = PartitionTopology(n.Topo, k)
	k = n.part.K
	n.regs = make([]*regionState, k)
	if k == 1 {
		n.regs[0] = &regionState{id: 0, sim: n.Sim, counters: n.Counters, trace: n.Trace}
	} else {
		if n.Trace != nil {
			// Parallel tracing: the shared recorder switches to stamped
			// buffering, each region emits through its own fork, and
			// Close merge-sorts everything into canonical order.
			n.Trace.Buffer()
		}
		for r := 0; r < k; r++ {
			reg := &regionState{
				id:       r,
				counters: metrics.NewCounters(),
				sim:      NewSimulator(n.Sim.seed),
			}
			if n.Trace != nil {
				sim := reg.sim
				reg.trace = n.Trace.Fork(func() int64 { return int64(sim.Now()) })
			}
			n.regs[r] = reg
		}
	}
	for _, reg := range n.regs {
		reg.heard = make([][]audible, n.Topo.N)
	}
	for i, a := range n.api {
		if a != nil {
			a.reg = n.regs[n.part.region[i]]
			a.sim = a.reg.sim
		}
	}
}

// Regions returns the effective region count (1 until SetRegions asks
// for more).
func (n *Network) Regions() int {
	if n.regs == nil {
		return 1
	}
	return len(n.regs)
}

// RegionOf returns the region node id belongs to (0 when serial).
func (n *Network) RegionOf(id NodeID) int {
	if n.part == nil {
		return 0
	}
	return n.part.RegionOf(id)
}

// RegionSim returns region r's simulator (the control simulator when
// serial). Per-region profilers attach here.
func (n *Network) RegionSim(r int) *Simulator { return n.regs[r].sim }

// RegionTrace returns region r's trace recorder fork (the shared
// recorder when serial, nil when tracing is off). Apps in region r
// must emit through it.
func (n *Network) RegionTrace(r int) *trace.Recorder { return n.regs[r].trace }

// MergeCounters folds every region's counter shard into dst. Serial
// runs count directly into the Network's shared Counters, so there is
// nothing to fold.
func (n *Network) MergeCounters(dst *metrics.Counters) {
	if len(n.regs) <= 1 {
		return
	}
	for _, reg := range n.regs {
		dst.Merge(reg.counters)
	}
}

// CountersBreakdown returns the live merged per-class breakdown across
// all regions. Callable from the control plane at barriers (windowed
// telemetry); equals Counters.Snapshot when serial.
func (n *Network) CountersBreakdown() metrics.Breakdown {
	if len(n.regs) <= 1 {
		return n.Counters.Snapshot()
	}
	var b metrics.Breakdown
	for _, reg := range n.regs {
		b = b.Add(reg.counters.Snapshot())
	}
	return b
}

// Attach installs app on node id. Must be called before Start.
func (n *Network) Attach(id NodeID, app App) {
	if n.started {
		panic("netsim: Attach after Start")
	}
	n.apps[id] = app
	a := &NodeAPI{net: n, id: id, sim: n.Sim}
	a.rng = NodeStream(&a.pcg, n.Sim.seed, id)
	if n.regs != nil {
		a.reg = n.regs[n.part.region[id]]
		a.sim = a.reg.sim
	}
	n.api[id] = a
}

// App returns the application attached to id (nil if none).
func (n *Network) App(id NodeID) App { return n.apps[id] }

// Start initialises all attached applications. Nodes without an app
// are inert (they neither send nor receive).
func (n *Network) Start() {
	if n.started {
		panic("netsim: double Start")
	}
	n.started = true
	if n.regs == nil {
		n.buildRegions()
	}
	nn := n.Topo.N
	if len(n.regs) > 1 {
		for _, reg := range n.regs {
			reg.asks = make([]bool, nn)
		}
		for i := 0; i < nn; i++ {
			asks := n.regs[n.part.region[i]].asks
			asks[i] = true
			for _, lk := range n.Topo.OutLinks(NodeID(i)) {
				asks[lk.Dst] = true
			}
		}
	}
	for i, app := range n.apps {
		if app != nil {
			app.Init(n.api[i])
		}
	}
}

// Run drives the simulation to `until`: the serial event loop when the
// network is unpartitioned, the windowed region coordinator otherwise
// (parallel.go). Events scheduled exactly at `until` still run.
func (n *Network) Run(until Time) {
	if len(n.regs) <= 1 {
		n.Sim.Run(until)
		return
	}
	n.runParallel(until)
}

// Kill marks a node dead: it stops sending, receiving and firing
// timers. Used for failure-injection experiments. Control-plane only
// (between events when serial, at barriers when parallel).
func (n *Network) Kill(id NodeID) {
	n.dead[id] = true
	n.Trace.Emit(trace.Event{Kind: trace.NodeDown, Node: uint16(id)})
	if n.OnPurge == nil {
		return
	}
	// The link-layer ack was resolved when each frame went on the air;
	// delivery skips a receiver that is dead when it lands.
	for _, reg := range n.regs {
		for _, d := range reg.inflight {
			if d.p.Dst != id {
				continue
			}
			for _, s := range d.recv {
				if s.dst == id {
					n.OnPurge(id, &d.p)
				}
			}
		}
	}
}

// Revive brings a dead node back (its protocol state is whatever the
// app retained).
func (n *Network) Revive(id NodeID) { n.dead[id] = false }

// Restart revives a dead node and reboots its application from
// scratch: the send queue is drained, pending timers and in-flight
// transmission attempts are invalidated, and the app's Init runs
// again — a rebooted mote rejoins with fresh protocol state (routing
// table, storage index, RAM buffers), which is what churn-injection
// experiments need. Contrast Revive, which resumes the old state but
// leaves timers dead.
func (n *Network) Restart(id NodeID) {
	n.dead[id] = false
	a := n.api[id]
	if a == nil {
		return
	}
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
	if n.apps[id] != nil {
		n.apps[id].Init(a)
	}
}

// Dead reports whether id is currently dead.
func (n *Network) Dead(id NodeID) bool { return n.dead[id] }

// ScaleLink multiplies the delivery probability of the directed link
// src→dst by f (clamped to [0,1] at use). Used to inject interference.
// A pair with no link has nothing to scale: the call is a no-op.
func (n *Network) ScaleLink(src, dst NodeID, f float64) {
	if li := n.Topo.linkIndex(src, dst); li >= 0 {
		n.linkScale[li] = f
	}
}

// ScaleAllLinks applies ScaleLink to every directed link, modelling a
// network-wide interference epoch.
func (n *Network) ScaleAllLinks(f float64) {
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
// any random draw, so the sender's substream advances identically for
// every region count. Control-plane only (dynamics events at barriers);
// windows of the same primitive must not overlap: one stripe is active
// at a time, and switching off names the stripe that was switched on.
func (n *Network) SetBlackout(lo, hi NodeID, on bool) {
	n.blackLo, n.blackHi = lo, hi
	n.setFault(blockBlackout, on)
}

// SetPartition switches a network partition on or off: every directed
// link between the node sets {id < boundary} and {id >= boundary} is
// blocked while the cut is active. Control-plane only; cut windows must
// not overlap.
func (n *Network) SetPartition(boundary NodeID, on bool) {
	n.partitionBoundary = boundary
	n.setFault(blockPartition, on)
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

// linkQuality returns the effective delivery probability now over link
// li, which runs src→dst.
func (n *Network) linkQuality(li int32, src, dst NodeID) float64 {
	if n.faults != 0 && n.blocked(src, dst) != 0 {
		return 0
	}
	q := n.Topo.links[li].Quality * n.linkScale[li]
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

func (n *Network) txDuration(size int) Time {
	d := n.Params.TxOverhead + Time(float64(size*8)/n.Params.BitsPerMs)
	if d < Millisecond {
		d = Millisecond
	}
	return d
}

// oseqNext allocates the next canonical schedule-sequence value for
// events originated by node id. All of id's scheduling happens on id's
// region goroutine (or the control plane at a barrier), so the counter
// needs no lock.
func (n *Network) oseqNext(id NodeID) uint64 {
	n.nextOseq[id]++
	return n.nextOseq[id]
}

// visible reports whether a frame begun at start is visible to carrier
// sense and the collision model at virtual time `floor` =
// gridFloor(now): radios detect a frame only from the next visibility
// grid point after it starts. The rule depends on the fixed grid alone,
// so every region — having exchanged ghost transmissions at the barrier
// on or before that grid point — computes the same answer regardless
// of K.
func visible(start, floor Time) bool { return start < floor }

// channelBusyAt reports whether any visible in-flight transmission is
// audible at node id right now (for carrier sense). The sense
// threshold is deliberately lower than the interference threshold:
// radios detect energy from transmissions too weak to decode.
func (n *Network) channelBusyAt(reg *regionState, id NodeID, now Time) bool {
	floor := gridFloor(now, n.window)
	for _, tx := range reg.heard[id] {
		if visible(tx.start, floor) && tx.end > now && tx.src != id &&
			n.linkQuality(tx.li, tx.src, id) > 0.08 {
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
// in (the region-parallel determinism contract).
func (n *Network) collided(reg *regionState, rng *rand.Rand, qs float64, src, dst NodeID, start Time) bool {
	if !n.Params.Collisions {
		return false
	}
	sc := n.interferersAt(reg, qs, src, dst, start)
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
// link src→dst the frame arrives over. The result aliases reg.scratch.
func (n *Network) interferersAt(reg *regionState, qs float64, src, dst NodeID, start Time) []interferer {
	floor := gridFloor(start, n.window)
	sc := reg.scratch[:0]
	for _, tx := range reg.heard[dst] {
		if tx.src == src || tx.src == dst {
			continue
		}
		if !visible(tx.start, floor) || tx.end <= start {
			continue
		}
		qi := n.linkQuality(tx.li, tx.src, dst)
		if qi <= 0.1 || qs >= 2*qi {
			continue // captured: interferer too weak to matter
		}
		sc = append(sc, interferer{src: tx.src, start: tx.start, qi: qi})
	}
	reg.scratch = sc[:0]
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

// recvSlot is one receiver of an in-air frame. gi is the receiver's
// index in the sender's out-link list — the global slot order, which
// stamps parallel trace emissions so merged traces reproduce the
// serial fan-out order.
type recvSlot struct {
	dst       NodeID
	gi        int32
	addressee bool
}

// delivery is the pooled end-of-airtime task for one transmission: a
// single cloned packet fanned out to every receiver in its region.
// Replacing the per-receiver clone + closure of the original design,
// it is what makes delivery allocation-free in steady state. A
// transmission heard across region boundaries becomes one delivery per
// region, all sharing the sender's canonical (origin, oseq) key.
type delivery struct {
	net  *Network
	reg  *regionState
	p    Packet   // header copy taken at transmit time
	rc   Recycled // p.Payload's reference until the last receiver returns (nil: none)
	recv []recvSlot
	idx  int // position in reg.inflight
}

// Run implements Task: deliver to every receiver, in the ascending
// slot order recorded at transmit time (identical to the per-receiver
// event order of the pre-pooling design), then recycle.
func (d *delivery) Run() {
	n := d.net
	reg := d.reg
	tr := reg.trace
	for _, s := range d.recv {
		if n.dead[s.dst] {
			continue // died mid-air; misses the frame
		}
		if tr != nil {
			tr.SetSub(s.gi)
		}
		if s.addressee {
			reg.counters.CountReceive(uint16(s.dst), d.p.Class, d.p.Size)
			if tr != nil {
				tr.Emit(trace.Event{Kind: trace.PacketRecv, Node: uint16(s.dst),
					Peer: uint16(d.p.Src), Class: d.p.Class, Size: int32(d.p.Size)})
			}
			n.apps[s.dst].Receive(&d.p)
		} else {
			reg.counters.CountSnoop(uint16(s.dst), d.p.Size)
			if tr != nil {
				tr.Emit(trace.Event{Kind: trace.PacketSnoop, Node: uint16(s.dst),
					Peer: uint16(d.p.Src), Class: d.p.Class, Size: int32(d.p.Size)})
			}
			n.apps[s.dst].Snoop(&d.p)
		}
	}
	reg.releaseDelivery(d)
}

func (r *regionState) newDelivery(n *Network, p *Packet) *delivery {
	var d *delivery
	if k := len(r.delivPool); k > 0 {
		d = r.delivPool[k-1]
		r.delivPool = r.delivPool[:k-1]
	} else {
		d = &delivery{net: n, reg: r}
	}
	d.p = *p
	d.recv = d.recv[:0]
	d.idx = len(r.inflight)
	r.inflight = append(r.inflight, d)
	return d
}

func (r *regionState) releaseDelivery(d *delivery) {
	// Swap-remove from the in-flight list.
	last := len(r.inflight) - 1
	r.inflight[d.idx] = r.inflight[last]
	r.inflight[d.idx].idx = d.idx
	r.inflight = r.inflight[:last]
	rc := d.rc
	d.p, d.rc = Packet{}, nil
	r.delivPool = append(r.delivPool, d)
	if rc != nil {
		Release(rc)
	}
}

// ForEachInFlight visits the header copy of every frame currently on
// the air (transmitted, not yet delivered), valid only during the call.
// Diagnostic/invariant use; control-plane only.
func (n *Network) ForEachInFlight(fn func(p *Packet)) {
	for _, reg := range n.regs {
		for _, d := range reg.inflight {
			fn(&d.p)
		}
	}
}

// ForEachQueued visits every packet waiting in any node's send queue,
// head job (transmission attempts in progress) first; p is valid only
// during the call. Diagnostic/invariant use; control-plane only.
func (n *Network) ForEachQueued(fn func(id NodeID, p *Packet)) {
	for i, a := range n.api {
		if a == nil {
			continue
		}
		for k := 0; k < a.qlen; k++ {
			fn(NodeID(i), &a.slot(k).p)
		}
	}
}

// transmit puts job's frame on the air from a's node and returns
// whether dst received it (for unicast ack modelling). It fans the
// frame out to every audible neighbour — same-region receivers onto one
// pooled delivery task, which holds a reference on a recycled payload,
// cross-region receivers into per-region outbox entries the coordinator
// schedules at the next barrier, which pin it. Every random draw
// (per-link loss, collision folds, the ack) comes from the sender's
// substream, in out-link order, so the resolution is identical for
// every K.
func (n *Network) transmit(a *NodeAPI, job *sendJob) bool {
	p, rc := &job.p, job.rc
	src := a.id
	reg := a.reg
	n.txSeq[src]++
	p.Seq = n.txSeq[src]
	now := a.sim.Now()
	dur := n.txDuration(p.Size)
	tx := transmission{src: src, start: now, end: now + dur}

	reg.counters.CountSend(uint16(src), p.Class, p.Size)
	if reg.trace != nil {
		reg.trace.Emit(trace.Event{Kind: trace.PacketSend, Node: uint16(src),
			Peer: uint16(p.Dst), Class: p.Class, Size: int32(p.Size)})
	}

	delivered := false
	parallel := len(n.regs) > 1
	var d *delivery
	var oseq uint64
	base := n.Topo.linkBase[src]
	for gi, lk := range n.Topo.OutLinks(src) {
		dst := lk.Dst
		li := base + int32(gi)
		// On the air at dst whatever becomes of the frame there. Hearing
		// it before resolving it is safe: a frame never interferes with
		// itself and nothing is visible before the next grid point.
		reg.hear(dst, li, tx, now)
		j := int(dst)
		if n.dead[j] || n.apps[j] == nil {
			continue
		}
		if n.faults != 0 && n.blocked(src, dst) != 0 {
			// Fault-blocked link: the frame dies before the per-link
			// draw, exactly like a q=0 link, so the sender's substream
			// advances identically whether or not a window is active
			// elsewhere.
			continue
		}
		q := lk.Quality * n.linkScale[li]
		if n.burstLoss > 0 {
			q *= 1 - n.burstLoss
		}
		if q > 1 {
			q = 1
		}
		if q <= 0 || a.rng.Float64() >= q {
			continue
		}
		if n.collided(reg, &a.rng, q, src, dst, tx.start) {
			reg.counters.CountDrop(metrics.DropCollision)
			if reg.trace != nil {
				reg.trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(dst),
					Peer: uint16(src), Class: p.Class, Cause: metrics.DropCollision,
					Size: int32(p.Size)})
			}
			continue
		}
		isAddressee := p.Dst == Broadcast || p.Dst == dst
		slot := recvSlot{dst: dst, gi: int32(gi), addressee: isAddressee}
		if oseq == 0 {
			// One canonical key per transmission, shared by the local
			// delivery and every cross-region copy: the copies live in
			// different heaps, so the duplicate key never collides, and
			// the shared key lets the trace merge restore slot order.
			oseq = n.oseqNext(src)
		}
		if rd := n.RegionOf(dst); parallel && rd != reg.id {
			if rc != nil {
				rc.refs().pinned = true
			}
			reg.addOutSlot(int32(rd), tx.end, src, oseq, p, slot)
		} else {
			if d == nil {
				d = reg.newDelivery(n, p)
				if d.rc = rc; rc != nil {
					Hold(rc)
				}
			}
			d.recv = append(d.recv, slot)
		}
		if isAddressee && p.Dst == dst {
			// Model the link-layer ack on the reverse link; ack frames
			// are short and more robust than data frames.
			aq := 0.0
			if rev := n.Topo.revLink[li]; rev >= 0 {
				aq = n.linkQuality(rev, dst, src) * n.Params.AckQualityBonus
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
	if parallel {
		reg.ghosts = append(reg.ghosts, tx)
	}
	if d != nil {
		// Deliver at end of airtime; a node that dies mid-air misses it.
		a.sim.scheduleOrigin(tx.end, src, oseq, d, prof.PhaseRadio)
	}
	return delivered
}

// addOutSlot appends one cross-region receiver slot, reusing the
// window's outbox entry for the same transmission and target region.
func (r *regionState) addOutSlot(to int32, at Time, origin NodeID, oseq uint64, p *Packet, slot recvSlot) {
	for i := len(r.outbox) - 1; i >= 0; i-- {
		e := &r.outbox[i]
		if e.oseq == oseq && e.origin == origin {
			if e.to == to {
				e.recv = append(e.recv, slot)
				return
			}
			continue
		}
		break
	}
	r.outbox = append(r.outbox, outDelivery{
		to: to, at: at, origin: origin, oseq: oseq, p: *p,
		recv: append(make([]recvSlot, 0, 4), slot),
	})
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
	a.reg.timerPool = append(a.reg.timerPool, t)
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
	a.reg.stepPool = append(a.reg.stepPool, s)
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
	reg      *regionState
	sim      *Simulator // the node's region clock (== net.Sim when serial), set by Attach
	id       NodeID
	pcg      rand.PCG  // per-node substream, held inline: all protocol randomness
	rng      rand.Rand // draws from pcg
	timerGen []uint64  // per-timer-ID arm generation, grown on demand
	busy     bool
	jobGen   uint64 // invalidates in-flight attempt events on job change

	// The send queue is a ring: qlen jobs, the one under transmission at
	// queue[qhead]. It grows on demand up to Params.QueueCap and is kept
	// across drains and reboots; a popped slot is zeroed.
	queue       []sendJob
	qhead, qlen int
}

// slot returns the k-th queued job, head first; good until the next enqueue or pop.
func (a *NodeAPI) slot(k int) *sendJob { return &a.queue[(a.qhead+k)%len(a.queue)] }

// ID returns this node's identifier.
func (a *NodeAPI) ID() NodeID { return a.id }

// N returns the network size (including the basestation).
func (a *NodeAPI) N() int { return a.net.Topo.N }

// Now returns the current virtual time (the node's region clock).
func (a *NodeAPI) Now() Time { return a.sim.Now() }

// Clock returns the simulator whose Now is this node's Now — the
// node's region engine, the network's own when serial — for a layer
// that reads the time on every frame to keep beside its state. It is
// final once Start runs Init; node code reads it and schedules nothing
// on it.
func (a *NodeAPI) Clock() *Simulator { return a.sim }

// RandIntn returns a uniform int in [0,n) from the node's substream,
// whose draw order is fixed by the node's own event order, never by
// global interleaving — the region-parallel determinism contract.
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
		a.reg.counters.CountDrop(metrics.DropQueue)
		if a.reg.trace != nil {
			a.reg.trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(a.id),
				Peer: uint16(p.Dst), Class: p.Class, Cause: metrics.DropQueue,
				Size: int32(p.Size)})
		}
		if done != nil {
			done.SendDone(false)
		}
		return
	}
	if a.qlen == len(a.queue) { // full ring: double it, head first
		grown := make([]sendJob, min(max(4, 2*a.qlen), a.net.Params.QueueCap))
		for k := range a.queue {
			grown[k] = *a.slot(k)
		}
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
	reg := a.reg
	var s *stepTask
	if k := len(reg.stepPool); k > 0 {
		s = reg.stepPool[k-1]
		reg.stepPool = reg.stepPool[:k-1]
	} else {
		s = &stepTask{}
	}
	s.a, s.gen, s.try, s.defers = a, gen, try, defers
	a.sim.scheduleOrigin(a.sim.Now()+d, a.id, a.net.oseqNext(a.id), s, prof.PhaseMAC)
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
		net.channelBusyAt(a.reg, a.id, a.sim.Now()) {
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
		a.reg.counters.CountDrop(cause)
		if a.reg.trace != nil {
			a.reg.trace.Emit(trace.Event{Kind: trace.PacketDrop, Node: uint16(a.id),
				Peer: uint16(j.p.Dst), Class: j.p.Class, Cause: cause,
				Size: int32(j.p.Size)})
		}
		a.jobDone(false)
		return
	}
	a.scheduleStep(a.randBetween(net.Params.RetryDelayMin, net.Params.RetryDelayMax),
		gen, try+1, defers)
}

// SetTimer schedules Timer(id) to fire after d, replacing any pending
// timer with the same id.
func (a *NodeAPI) SetTimer(id int, d Time) {
	a.timerGen = dense.Grow(a.timerGen, id)
	a.timerGen[id]++
	reg := a.reg
	var t *timerTask
	if k := len(reg.timerPool); k > 0 {
		t = reg.timerPool[k-1]
		reg.timerPool = reg.timerPool[:k-1]
	} else {
		t = &timerTask{}
	}
	t.a, t.id, t.gen = a, id, a.timerGen[id]
	a.sim.scheduleOrigin(a.sim.Now()+d, a.id, a.net.oseqNext(a.id), t, prof.PhaseMAC)
}

// CancelTimer drops any pending timer with the given id.
func (a *NodeAPI) CancelTimer(id int) {
	if id < len(a.timerGen) {
		a.timerGen[id]++
	}
}

func (a *NodeAPI) randBetween(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(a.rng.Int64N(int64(hi-lo)))
}

func (a *NodeAPI) String() string { return fmt.Sprintf("node(%d)", a.id) }
