package core

import (
	"cmp"
	"slices"

	"scoop/internal/histogram"
	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/prof"
	"scoop/internal/routing"
	"scoop/internal/trace"
	"scoop/internal/trickle"
)

// Sampler produces the sensor value node id reads at virtual time now.
// The experiment harness adapts a workload.Source to this.
type Sampler func(id netsim.NodeID, now netsim.Time) int

// mapKey encodes a mapping chunk's identity for Trickle.
func mapKey(indexID uint16, num uint8) trickle.Key {
	return trickle.Key(indexID)<<8 | trickle.Key(num)
}

// chunkOf decodes a mapping chunk's Trickle key.
func chunkOf(key trickle.Key) (indexID uint16, num uint8) { return uint16(key >> 8), uint8(key) }

// queryKey encodes a query's identity for Trickle.
func queryKey(id uint16) trickle.Key { return trickle.Key(id) }

// Node is the Scoop application running on every non-base mote.
type Node struct {
	// tree leads the struct, by value: Snoop is the node's most
	// frequent callback, and all it does is Tree.Observe, which reads
	// what the Tree leads with — so a snoop's first line is the tree's.
	tree routing.Tree

	api    *netsim.NodeAPI
	cfg    Config
	stats  *RunStats
	sample Sampler
	start  netsim.Time // when sampling begins (after tree warm-up)

	recent     RecentBuffer
	recentVals []int // sendSummary's copy of recent, reused
	store      DataBuffer

	cur    *index.Index   // newest complete storage index (nil: none yet)
	chunks index.ChunkSet // gossip store and assembler, generations ≥ cur's
	mapGos trickle.Trickle

	// Query state is indexed by dense query ID (the basestation issues
	// IDs sequentially), replacing the per-delivery hash maps of the
	// pre-scale-tier code (DESIGN.md §12). A query of either kind is
	// known from its first packet on, so every later copy only feeds
	// Trickle suppression and a node answers each query ID once.
	queries []*QueryMsg
	qGos    trickle.Trickle

	// In-network partial-aggregate combining: the per-query combine
	// buffer, per-query flush sequence numbers, and the shared flush
	// deadline (0 when the timer is unarmed). All dense by query ID.
	aggPending []*aggCombine
	aggSeq     []uint8
	aggFlushAt netsim.Time

	// Pending data batches, one per destination owner (paper §5.4
	// batches "up to n readings destined for the same node"; keeping
	// one open batch per owner instead of flushing on every owner
	// change preserves the batching win when consecutive samples
	// straddle a range boundary — see DESIGN.md §6). batchq holds the
	// owners with a pending batch, and only those. A launched batch's
	// buffer goes to spareBatches for the next one (its hop copies what
	// it sends); regroup holds a received batch's fresh readings, which
	// rule 1 sorts in place.
	batchq   idTable[[]Reading]
	batchSID uint16
	// samplesSinceSummary shares batchSID's word.
	samplesSinceSummary int32
	spareBatches        [][]Reading
	regroup             []Reading

	pendingAnswers []*QueryMsg // queries awaiting the jittered reply

	// Forwarding dedup: ack loss makes upstream senders retransmit
	// packets we already relayed; re-forwarding every copy amplifies
	// exponentially along the path (DESIGN.md §7).
	seenSummaries seenTable
	seenReplies   seenTable
	seenAggParts  seenTable
	seenData      dataSeen

	// The network's free lists and blocks (netsim.Shared): data hops,
	// replies and mapping chunks go back to its lists after their last
	// delivery, and the node's arrays grow in its blocks.
	net *shared
}

// NewNode creates a Scoop node that begins sampling at the absolute
// virtual time startAt (the paper spends the first 10 minutes
// stabilising the routing tree before sampling starts).
func NewNode(cfg Config, stats *RunStats, sample Sampler, startAt netsim.Time) *Node {
	return NewNodes(2, cfg, stats, sample, startAt)[1]
}

// NewNodes returns the motes of an n-node network, nodes[id] for ids 1
// to n-1 (nodes[0] is nil: the basestation), each as NewNode returns
// it, built for one network's set-up: the nodes are one array, and the
// fixed-size parts of each — the routing tree's tables (routing.Carve)
// and the recent-readings ring — are carved from one slab per type.
// Set-up makes as many objects for 1000 motes as for 63 (DESIGN.md
// §12). What a mote fills only once it runs (its flash ring, its
// Trickles' items, its dedup rows) it takes then, from its network's
// blocks.
func NewNodes(n int, cfg Config, stats *RunStats, sample Sampler, startAt netsim.Time) []*Node {
	motes := make([]Node, n-1)
	nodes := make([]*Node, n)
	trees := make([]*routing.Tree, n-1)
	recent := make([]int, (n-1)*recentBufSize)
	for i := range motes {
		m := &motes[i]
		m.cfg, m.stats, m.sample, m.start = cfg, stats, sample, startAt
		m.recent.buf, recent = recent[:recentBufSize:recentBufSize], recent[recentBufSize:]
		m.store.cap = dataBufCap
		trees[i] = &m.tree
		nodes[i+1] = m
	}
	routing.Carve(trees)
	return nodes
}

// Store exposes the node's data buffer, which the experiment harness
// reads for an aggregate query's ground truth.
func (n *Node) Store() *DataBuffer { return &n.store }

// PendingBatchReadings returns the readings currently held in this
// node's per-owner batch buffers — "in flight at run end" for the
// conservation invariant. Test/diagnostic accessor.
func (n *Node) PendingBatchReadings() []Reading {
	var out []Reading
	for _, rs := range n.batchq.vals {
		out = append(out, rs...)
	}
	return out
}

// Init implements netsim.App.
//
// Init doubles as the reboot path (Network.Restart): a rebooted mote
// loses every piece of RAM state, including its assembled storage
// index and any pending replies — it is index-less until Trickle
// redissemination reaches it (or a Preload applies). The first Init
// builds the protocol state; a reboot clears the same structures in
// place, so their arrays stay as allocation caches, like the free
// lists, and the node is in exactly the state a first boot leaves
// (core.TestRestartClearsStateInPlace).
func (n *Node) Init(api *netsim.NodeAPI) {
	// Reboot accounting: readings batched in RAM when the mote loses
	// power are gone for good — tell the flight recorder before the
	// buffers are cleared. (LostData counts only send-path losses.)
	for _, rs := range n.batchq.vals {
		for _, r := range rs {
			n.cfg.Trace.Emit(trace.Event{Kind: trace.ReadingLost,
				Node: uint16(api.ID()), Cause: metrics.DropReboot,
				Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
		}
		n.spareBatches = append(netsim.Grow(&n.net.batches, n.spareBatches, spareMin), rs[:0])
	}
	if n.api != api { // first boot: build
		n.api = api
		n.tree.Init(api, false)
		n.mapGos.Init(api, timerMapping, mappingTrickle, n)
		n.qGos.Init(api, timerQuery, queryTrickle, n)
		n.net = netsim.Shared[shared](api)
		n.store.blocks, n.chunks.Shared = &n.net.readings, &n.net.gens
	} else { // a reboot on the same radio: clear in place
		n.tree.Reset()
		n.recent.Clear()
		n.store.Clear()
		n.mapGos.Clear()
		n.qGos.Clear()
	}
	n.chunks.Clear()
	clear(n.queries)
	n.queries = n.queries[:0]
	clear(n.aggPending)
	n.aggPending, n.aggSeq = n.aggPending[:0], n.aggSeq[:0]
	clear(n.pendingAnswers)
	n.pendingAnswers = n.pendingAnswers[:0]
	n.aggFlushAt = 0
	n.seenSummaries.reset()
	n.seenReplies.reset()
	n.seenAggParts.reset()
	n.seenData = dataSeen{}
	n.batchq.clear()
	n.cur = n.cfg.Preload
	n.batchSID = 0
	n.samplesSinceSummary = 0
	n.tree.Start(timerTree)
	// A node rebooted mid-run (start already past) re-jitters from
	// now: otherwise every node restarted at the same churn instant
	// would sample and summarise in lockstep, nullifying the
	// desynchronisation the jitter exists for.
	start := n.start
	if now := api.Now(); now > start {
		start = now
	}
	jitter := netsim.Time(api.RandIntn(int(n.cfg.SampleInterval)))
	api.SetTimer(timerSample, start+jitter-api.Now())
	if n.cfg.Preload == nil { // a preloaded index needs no statistics
		sjitter := netsim.Time(api.RandIntn(int(n.cfg.SummaryInterval)))
		api.SetTimer(timerSummary, start+sjitter-api.Now())
	}
}

// Timer implements netsim.App.
func (n *Node) Timer(id int) {
	switch id {
	case timerTree:
		n.tree.OnTimer()
	case timerSample:
		n.takeSample()
		n.api.SetTimer(timerSample, n.cfg.SampleInterval)
	case timerSummary:
		n.sendSummary()
		n.api.SetTimer(timerSummary, n.cfg.SummaryInterval)
	case timerMapping:
		n.mapGos.OnTimer()
	case timerQuery:
		n.qGos.OnTimer()
	case timerBatch:
		n.flushBatch()
	case timerReply:
		for _, q := range n.pendingAnswers {
			n.answer(q)
		}
		n.pendingAnswers = n.pendingAnswers[:0] // n.queries holds them anyway
	case timerAggFlush:
		n.flushAgg()
	}
}

// Receive implements netsim.App. Wall time spent here attributes to
// the node-recv phase (nested agg-combine/chunk spans re-attribute
// themselves).
func (n *Node) Receive(p *netsim.Packet) {
	prev := n.cfg.Prof.Enter(prof.PhaseNodeRecv)
	n.receive(p)
	n.cfg.Prof.Exit(prev)
}

func (n *Node) receive(p *netsim.Packet) {
	n.tree.Observe(p)
	switch m := p.Payload.(type) {
	case *SummaryMsg:
		n.learnDescendant(p)
		// A descendant advertising an outdated index (a rebooted node
		// reports 0) is a Trickle inconsistency: resume fast gossip of
		// our current generation so it catches up (mapping chunks
		// retire after MaxRounds and would otherwise stay silent).
		if n.cur != nil && !n.cur.Local && m.LastIndexID < n.cur.ID {
			resetChunks(&n.chunks, n.cur.ID, &n.mapGos)
		}
		// A summary is shared and immutable: the relay forwards the
		// message it heard, the hop count riding in the frame header.
		if int(p.Hops) <= maxHops && !n.seenSummaries.Seen(&n.net.seen, m.Node, uint64(m.SentAt)) {
			n.forwardUp(p, m, metrics.Summary, summarySize(m))
		}
	case *ReplyMsg:
		n.learnDescendant(p)
		if int(p.Hops) <= maxHops && !n.seenReplies.Seen(&n.net.seen, m.Node, uint64(m.QueryID)) {
			fwd := n.newReply()
			fwd.QueryID, fwd.Node, fwd.Count = m.QueryID, m.Node, m.Count
			fwd.Readings = append(fwd.Readings, m.Readings...)
			n.forwardUp(p, fwd, metrics.Reply, replySize(m))
			netsim.Release(fwd)
		}
	case *AggReplyMsg:
		n.learnDescendant(p)
		n.onAggPartial(m, p.Hops)
	case *DataMsg:
		n.learnDescendant(p)
		n.handleData(m, p.Hops)
	case *MappingMsg:
		n.onChunk(m.Chunk)
	case *QueryMsg:
		n.onQuery(m)
	}
}

// Snoop implements netsim.App: overheard traffic still feeds link
// estimation.
func (n *Node) Snoop(p *netsim.Packet) { n.tree.Observe(p) }

// learnDescendant records the packet's origin as reachable via the
// link-layer sender, feeding the descendants list used by routing
// rule 5. Traffic arriving from our own parent teaches us nothing
// about our subtree.
func (n *Node) learnDescendant(p *netsim.Packet) {
	if p.Src != n.tree.Parent() && p.Origin != n.api.ID() {
		n.tree.RecordUpstream(p.Origin, p.Src)
	}
}

// forwardUp relays a summary or reply one hop toward the basestation,
// one hop further than p travelled.
func (n *Node) forwardUp(p *netsim.Packet, payload any, class metrics.Class, size int) {
	if !n.tree.HasRoute() {
		return // nowhere to go; the message is lost
	}
	fwd := &netsim.Packet{
		Class:        class,
		Hops:         p.Hops + 1,
		Dst:          n.tree.Parent(),
		Origin:       p.Origin,
		OriginParent: p.OriginParent,
		Size:         size,
		Payload:      payload,
	}
	n.api.Send(fwd, nil)
}

// takeSample reads the sensor and routes the reading per the current
// storage index (paper §5.4).
func (n *Node) takeSample() {
	now := n.api.Now()
	v := n.sample(n.api.ID(), now)
	n.stats.Produced++
	n.cfg.Trace.Emit(trace.Event{Kind: trace.ReadingSampled, Node: uint16(n.api.ID()),
		Producer: uint16(n.api.ID()), SampleT: int64(now), Value: int64(v)})
	n.recent.Add(v)
	n.samplesSinceSummary++
	r := Reading{Producer: uint16(n.api.ID()), Value: v, Time: int64(now)}

	owner, sid, ok := n.lookupOwner(v)
	if !ok || owner == n.api.ID() {
		// No (usable) index yet → store-local default; or we own v.
		n.store.Store(r)
		n.stats.StoredLocal++
		n.stats.MarkStored(r.Producer, r.Time)
		n.cfg.Trace.Emit(trace.Event{Kind: trace.ReadingStored, Node: uint16(n.api.ID()),
			Flag: trace.StoreLocal, Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
		return
	}
	// Batch readings destined for the same owner (paper: up to 5).
	if len(n.batchq.ids) == 0 {
		n.api.SetTimer(timerBatch, batchTimeout)
	}
	n.batchSID = sid
	rs := n.batchq.at(owner, &n.net.seen.ids, &n.net.batches)
	if *rs == nil {
		if k := len(n.spareBatches); k > 0 {
			*rs, n.spareBatches = n.spareBatches[k-1], n.spareBatches[:k-1]
		} else {
			*rs = n.net.readings.Take(n.cfg.BatchSize)
		}
	}
	*rs = append(*rs, r)
	if full := *rs; len(full) >= n.cfg.BatchSize {
		n.batchq.remove(owner)
		n.routeData(full, owner, sid, 0)
		n.spareBatches = append(netsim.Grow(&n.net.batches, n.spareBatches, spareMin), full[:0])
	}
}

// lookupOwner resolves v through the node's current index. ok is false
// when the node has no index or a store-local index.
func (n *Node) lookupOwner(v int) (netsim.NodeID, uint16, bool) {
	if n.cur == nil || n.cur.Local {
		return 0, 0, false
	}
	o, ok := n.cur.Owner(v)
	if !ok {
		return 0, 0, false
	}
	return o, n.cur.ID, true
}

// flushBatch launches every pending batch (timeout path), in ascending
// owner order — trace lines and the senders' random draws follow it.
func (n *Node) flushBatch() {
	for i, owner := range n.batchq.ids {
		rs := n.batchq.vals[i]
		n.routeData(rs, owner, n.batchSID, 0)
		n.spareBatches = append(netsim.Grow(&n.net.batches, n.spareBatches, spareMin), rs[:0])
	}
	n.batchq.clear()
	n.api.CancelTimer(timerBatch)
}

// loseReadings accounts a batch of readings as lost in RunStats and
// emits one reading-lost trace event per reading. The account is
// sender-perceived: an ack loss can mark a reading lost that was in
// fact stored, so conservation treats it as at-least-once.
func (n *Node) loseReadings(rs []Reading, cause metrics.DropCause) {
	n.stats.LostData += int64(len(rs))
	if rec := n.cfg.Trace; rec != nil {
		me := uint16(n.api.ID())
		for _, r := range rs {
			rec.Emit(trace.Event{Kind: trace.ReadingLost, Node: me, Cause: cause,
				Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
		}
	}
}

// handleData applies the paper's six routing rules to a data message
// received in a frame with header hops.
func (n *Node) handleData(m *DataMsg, hops uint8) {
	// TTL guard against transient routing loops. Unlike a relayed
	// summary or reply, data counts the hop it arrived over: readings
	// that took more than maxHops transmissions to get here are dropped.
	if int(hops) >= maxHops {
		n.loseReadings(m.Readings, metrics.DropTTL)
		return
	}
	// Duplicate suppression (DESIGN.md §7): the readings of this copy
	// that are not stored here and were not accepted before at this hop
	// count go on, copied into the node's scratch buffer (the payload is
	// borrowed).
	fresh := n.regroup[:0]
	for _, r := range m.Readings {
		if n.seenData.accept(r, hops) {
			fresh = append(netsim.Grow(&n.net.readings, fresh, n.cfg.BatchSize), r)
		}
	}
	n.regroup = fresh
	if len(fresh) == 0 {
		return
	}
	hops++ // what this node's frames carry
	// Rule 1: a newer index here rewrites the destination. Readings in
	// one batch may now map to different owners; regroup in owner order
	// (so runs are reproducible), out-of-domain values heading for the
	// base (0), and send each run.
	if n.cur != nil && !n.cur.Local && n.cur.ID > m.SID {
		owner := func(r Reading) netsim.NodeID { o, _ := n.cur.Owner(r.Value); return o }
		rs := fresh
		slices.SortStableFunc(rs, func(a, b Reading) int { return cmp.Compare(owner(a), owner(b)) })
		for len(rs) > 0 {
			k := 1
			for k < len(rs) && owner(rs[k]) == owner(rs[0]) {
				k++
			}
			n.routeData(rs[:k], owner(rs[0]), n.cur.ID, hops)
			rs = rs[k:]
		}
		return
	}
	n.routeData(fresh, m.Owner, m.SID, hops)
}

// routeData applies rules 2–6 (rule 4 lives in the basestation app) to
// readings bound for owner under index sid, sending them with header
// hops (0 where they were batched). Rules 3–6 copy them into a hop of
// this node's own.
func (n *Node) routeData(rs []Reading, owner netsim.NodeID, sid uint16, hops uint8) {
	me := n.api.ID()
	// Rule 2: we are the owner. A reading is stored once: a copy the
	// dedup cache no longer remembers is looked up in Flash.
	if owner == me {
		for _, r := range rs {
			if n.seenData.store(r) || n.store.Holds(r) {
				continue
			}
			n.store.Store(r)
			n.stats.MarkStored(r.Producer, r.Time)
			site := trace.StoreOwner
			if netsim.NodeID(r.Producer) == me {
				n.stats.StoredLocal++
				site = trace.StoreLocal
			} else {
				n.stats.StoredAtOwner++
			}
			n.cfg.Trace.Emit(trace.Event{Kind: trace.ReadingStored, Node: uint16(me),
				Flag: site, Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
		}
		return
	}
	h := n.net.hops.Get()
	h.n, h.msg.hop = n, h
	if h.msg.Readings == nil { // a new hop: its own array, unless a batch outgrows it
		h.msg.Readings = h.buf[:0]
	}
	h.msg.Readings = append(h.msg.Readings, rs...)
	h.msg.Owner, h.msg.SID, h.hops = owner, sid, hops
	netsim.Hold(&h.msg)
	h.route(3)
}

// dataHop is one data message leaving this node, in one object: the
// payload its frames carry (&msg, Readings slicing buf), their header
// hop count, and the completion the MAC reports to. A failed rule falls
// back to the next by re-sending the same hop: a sent msg never
// changes. The hop holds the sender's reference on msg until its last
// verdict; the last delivery then returns it to the network's free
// list.
type dataHop struct {
	msg  DataMsg
	n    *Node
	rule int        // the routing rule (3, 5 or 6) that chose the frame in flight
	hops uint8      // the frames' header Hops
	buf  [5]Reading // msg.Readings' array at the paper's batch size
}

// route sends the hop by the first of rules 3, 5 and 6, from rule
// `from` on, that applies.
func (h *dataHop) route(from int) {
	n, owner := h.n, h.msg.Owner
	to := n.tree.Parent()
	if from <= 3 && n.tree.OutQuality(owner) >= 0.4 {
		// Rule 3: the owner is a direct neighbor — shortcut the tree.
		// Only links of reasonable quality qualify: shortcutting over a
		// barely-audible link wastes a full retransmission budget before
		// falling back (property P4: avoid lossy links).
		h.rule, to = 3, owner
	} else if child, ok := n.tree.Descendants.NextHop(owner); from <= 5 && ok && child != to {
		// Rule 5: owner is a known descendant — route down that branch.
		h.rule, to = 5, child
	} else if n.tree.HasRoute() {
		h.rule = 6 // Rule 6: send toward the basestation.
	} else {
		n.loseReadings(h.msg.Readings, metrics.DropNoRoute)
		netsim.Release(&h.msg)
		return
	}
	n.api.Send(&netsim.Packet{
		Class:        metrics.Data,
		Hops:         h.hops,
		Dst:          to,
		Origin:       n.api.ID(),
		OriginParent: n.tree.Parent(),
		Size:         dataSize(&h.msg),
		Payload:      &h.msg,
	}, h)
}

// SendDone is the link layer's verdict on the frame in flight: a failed
// rule falls back to the next, a failed rule 6 loses the readings.
func (h *dataHop) SendDone(ok bool) {
	switch {
	case ok:
	case h.rule == 6:
		h.n.loseReadings(h.msg.Readings, metrics.DropRadio)
	case h.rule == 5:
		h.n.tree.Descendants.Forget(h.msg.Owner)
		fallthrough
	default:
		h.route(h.rule + 1)
		return
	}
	netsim.Release(&h.msg)
}

// sendSummary builds and launches this node's periodic summary message
// (paper §5.2).
func (n *Node) sendSummary() {
	if n.recent.Len() == 0 || !n.tree.HasRoute() {
		n.samplesSinceSummary = 0
		return
	}
	min, max, sum, _ := n.recent.MinMaxSum()
	lastID := uint16(0)
	if n.cur != nil {
		lastID = n.cur.ID
	}
	if n.recentVals == nil {
		n.recentVals = n.net.values.Take(recentBufSize)
	}
	n.recentVals = n.recent.AppendValues(n.recentVals[:0])
	m := &SummaryMsg{
		Node:        n.api.ID(),
		Min:         min,
		Max:         max,
		Sum:         sum,
		Rate:        float64(n.samplesSinceSummary) / (float64(n.cfg.SummaryInterval) / float64(netsim.Second)),
		LastIndexID: lastID,
		SentAt:      n.api.Now(),
	}
	m.Hist = histogram.Fill(n.recentVals, m.bins[:])
	m.Neighbors = n.tree.Neighbors.Best(m.nbrs[:0], neighborReport)
	n.samplesSinceSummary = 0
	n.stats.SummariesSent++
	n.api.Send(&netsim.Packet{
		Class:        metrics.Summary,
		Dst:          n.tree.Parent(),
		Origin:       n.api.ID(),
		OriginParent: n.tree.Parent(),
		Size:         summarySize(m),
		Payload:      m,
	}, nil)
}

// onChunk processes one received mapping message (paper §5.3).
// onChunk assembles received mapping chunks into a fresh index. Wall
// time attributes to the chunk-dissemination phase.
func (n *Node) onChunk(c index.Chunk) {
	prev := n.cfg.Prof.Enter(prof.PhaseChunk)
	n.handleChunk(c)
	n.cfg.Prof.Exit(prev)
}

func (n *Node) handleChunk(c index.Chunk) {
	key := mapKey(c.IndexID, c.Num)
	if _, held := n.chunks.Get(c.IndexID, c.Num); held {
		n.mapGos.Heard(key)
		return
	}
	if n.cur != nil && c.IndexID < n.cur.ID {
		// A neighbor is gossiping a stale generation: speed up our own
		// gossip so it catches up (Trickle inconsistency rule).
		resetChunks(&n.chunks, n.cur.ID, &n.mapGos)
		return
	}
	n.chunks.Insert(c)
	n.mapGos.Add(key)
	if complete := n.chunks.Complete(c.IndexID, c.Total); complete != nil {
		if n.cur == nil || complete.ID > n.cur.ID {
			n.cur = complete
		}
		dropChunks(&n.chunks, n.cur.ID, &n.mapGos) // superseded generations
	}
}

// Gossip implements trickle.Sender for the node's two Trickles.
func (n *Node) Gossip(timerID int, key trickle.Key) {
	if timerID == timerMapping {
		n.sendChunk(key)
	} else {
		n.sendQuery(key)
	}
}

// sendChunk is the mapping-Trickle transmit callback. Wall time
// attributes to the chunk-dissemination phase.
func (n *Node) sendChunk(key trickle.Key) {
	prev := n.cfg.Prof.Enter(prof.PhaseChunk)
	n.sendChunkNow(key)
	n.cfg.Prof.Exit(prev)
}

func (n *Node) sendChunkNow(key trickle.Key) {
	c, ok := n.chunks.Get(chunkOf(key))
	if !ok {
		return
	}
	n.cfg.Trace.Emit(trace.Event{Kind: trace.ChunkSent, Node: uint16(n.api.ID()),
		ID: c.IndexID, Value: int64(c.Num)})
	m := newMapping(&n.net.mappings, c)
	n.api.Broadcast(&netsim.Packet{
		Class:        metrics.Mapping,
		Origin:       n.api.ID(),
		OriginParent: n.tree.Parent(),
		Size:         mappingSize(m),
		Payload:      m,
	})
	netsim.Release(m)
}

// onQuery processes a query packet: feed Trickle suppression, decide
// whether to re-broadcast (Scoop's selective dissemination uses the
// bitmap plus the neighbor and descendants lists, paper §5.5), and
// answer if targeted — with tuples, or for an aggregate operator with
// a partial scheduled into the combine buffer.
func (n *Node) onQuery(q *QueryMsg) {
	key := queryKey(q.ID)
	if int(q.ID) < len(n.queries) && n.queries[q.ID] != nil {
		n.qGos.Heard(key)
		return
	}
	// A run issues tens to hundreds of queries: the table starts at
	// queryTableMin IDs and doubles, not regrowing every few IDs.
	n.queries = extend(&n.net.queries, n.queries, int(q.ID), queryTableMin)
	n.queries[q.ID] = q
	if n.shouldRelay(&q.Bitmap) {
		n.qGos.Add(key)
	}
	if !q.Bitmap.Has(n.api.ID()) {
		return
	}
	if q.Op.Aggregate() {
		n.scheduleOwnPartial(q)
		return
	}
	// Jitter the reply so a widely-targeted query does not trigger a
	// synchronized reply storm (the paper notes it takes several
	// seconds for the first replies to come back).
	n.api.SetTimer(timerReply, netsim.Time(50+n.api.RandIntn(int(4*netsim.Second))))
	n.pendingAnswers = append(netsim.Grow(&n.net.queries, n.pendingAnswers, spareMin), q)
}

// queryTableMin is the query-ID capacity a node's query table starts at.
const queryTableMin = 64

// spareMin is the capacity a node's spare-batch and pending-answer lists
// start at.
const spareMin = 4

// shouldRelay reports whether this node re-broadcasts a query: only
// when some targeted node other than itself is plausibly reachable
// through it (a known neighbor or recorded descendant). Asked from the
// short side — the two bounded tables probe the bitmap, at most
// neighborCap + descendantCap lookups — not by walking up to N target
// bits through both tables.
func (n *Node) shouldRelay(bm *Bitmap) bool {
	me := n.api.ID()
	for _, ids := range [...][]netsim.NodeID{n.tree.Neighbors.Tracked(), n.tree.Descendants.Tracked()} {
		for _, id := range ids {
			if id != me && bm.Has(id) {
				return true
			}
		}
	}
	return false
}

// sendQuery is the query-Trickle transmit callback.
func (n *Node) sendQuery(key trickle.Key) {
	if int(key) >= len(n.queries) || n.queries[key] == nil {
		return
	}
	q := n.queries[key]
	n.api.Broadcast(&netsim.Packet{
		Class:        metrics.Query,
		Origin:       n.api.ID(),
		OriginParent: n.tree.Parent(),
		Size:         querySize(q),
		Payload:      q,
	})
}

// answer linearly scans the data buffer (paper §5.5) and sends a reply
// toward the basestation — "even if no tuples matched the query". The
// scan appends the first replyMaxReadings matches straight into the
// reply's own buffer and counts the rest.
func (n *Node) answer(q *QueryMsg) {
	m := n.newReply()
	m.QueryID, m.Node = q.ID, n.api.ID()
	n.store.Select(q.ValueLo, q.ValueHi, int64(q.TimeLo), int64(q.TimeHi), func(r Reading) {
		if m.Count < replyMaxReadings {
			m.Readings = append(m.Readings, r)
		}
		m.Count++
	})
	n.cfg.Trace.Emit(trace.Event{Kind: trace.QueryAnswered, Node: uint16(n.api.ID()),
		ID: q.ID, Value: int64(m.Count)})
	if n.tree.HasRoute() {
		n.stats.RepliesSent++
		n.api.Send(&netsim.Packet{
			Class:        metrics.Reply,
			Dst:          n.tree.Parent(),
			Origin:       n.api.ID(),
			OriginParent: n.tree.Parent(),
			Size:         replySize(m),
			Payload:      m,
		}, nil)
	}
	netsim.Release(m)
}

// newReply takes a ReplyMsg off the network's free list, with the
// sender's reference held.
func (n *Node) newReply() *ReplyMsg {
	m := n.net.replies.Get()
	m.free = &n.net.replies
	netsim.Hold(m)
	return m
}
