package core

import (
	"slices"

	"scoop/internal/dense"
	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/prof"
	"scoop/internal/query"
	"scoop/internal/routing"
	"scoop/internal/trace"
	"scoop/internal/trickle"
	"scoop/internal/workload"
)

// indexRecord remembers when an index generation became active, so
// historical queries can locate the data stored under it (paper §5.5:
// "unlike nodes, the basestation never discards old storage indices").
type indexRecord struct {
	ix *index.Index
	at netsim.Time
}

// loggedQuery feeds the query-statistics profile.
type loggedQuery struct {
	at     netsim.Time
	lo, hi int
	ranged bool
}

// pendingQuery is the basestation's one record per issued query,
// tuple or aggregate. Every plan gets a query out and tells who is
// still silent the same way; plans differ only in what they collect.
type pendingQuery struct {
	plan     query.Plan     // PlanTuple for IssueQuery; the planner's choice for IssueAgg
	q        query.AggQuery // aggregates only: operator, quantile, ranges
	est      query.Estimate // aggregates only: the summary answer, or what degradation falls back to
	issued   netsim.Time
	expected int    // targeted nodes (the base excluded)
	heard    Bitmap // owners heard, across attempts: reply dedup and the retry layer's silent set
	answered bool   // aggregates only: an answer is in hand (AggFirstAnswerMS has its sample)

	// Tuple collector (PlanTuple).
	readings  []Reading // tuples carried back, each once (reply payloads are capped)
	delivered seenTable // readings' (producer, sample time) keys, for collect
	total     int       // total matches the owners reported (uncapped node counts)

	// Partial collector (PlanAgg, PlanFlood).
	part     query.Partial
	contribs int

	// Reliability layer state (DESIGN.md §19); msg aside, all zero when
	// Config.QueryDeadline is 0.
	msg      *QueryMsg   // the issued packet (retries narrow its bitmap)
	deadline netsim.Time // next retry/settle point
	attempt  int         // re-issues so far
	verdict  Verdict     // terminal verdict once settled
	wires    []uint16    // retry wire IDs mapping back to this query
	logIdx   int         // 1+index into the durable journal; 0 = none
}

// wireQuery is what the basestation holds for one wire query ID, a
// first issue or a retry: the record of the query first issued under
// it, the packet under query gossip with it, and the query a retry
// re-asks (0: none). Settling drops the last two (relDropWire).
type wireQuery struct {
	pq      *pendingQuery
	out     *QueryMsg
	retryOf uint16
}

// Base is the Scoop basestation application (node 0). The paper runs
// it on a PC attached to a mote; it has ample CPU/memory.
type Base struct {
	tree  routing.Tree // first, by value, as in Node
	api   *netsim.NodeAPI
	cfg   Config
	stats *RunStats
	start netsim.Time // when indexing begins (after warm-up)

	store *DataBuffer

	// The summaries the base keeps are its own copies (kept), carved
	// from blocks of its own: a received SummaryMsg goes back to its
	// network's free list after its last delivery.
	latest     []*SummaryMsg             // the copy of the last summary received per node, dense by node ID
	latestHops []uint8                   // the header Hops latest[id] arrived with
	history    []*SummaryMsg             // never discarded (paper §5.5)
	inHistory  seenTable                 // history's (node, SentAt) keys: each summary kept once
	kept       netsim.Blocks[SummaryMsg] // history's copies
	// The history indexed by node: newest[id] is 1 + the history index of
	// node id's summary with the latest SentAt, older[i] 1 + that of the
	// next earlier one by the same node (0: none). The planner walks a
	// node's chain from its newest summary to the latest one inside a
	// query's window.
	newest, older []int32
	snaps         []query.SummarySnapshot // latestSummaries' result, reused

	cur     *index.Index
	records []indexRecord
	nextID  uint16
	chunks  index.ChunkSet // the current generation's, under gossip
	mapGos  trickle.Trickle
	qGos    trickle.Trickle

	net *shared // the network's free lists and blocks (netsim.Shared)

	queryLog     []loggedQuery
	byWire       []wireQuery                 // dense by wire query ID (wire)
	queries      netsim.Blocks[pendingQuery] // byWire's records: QueryResults reads one after it settles
	packets      netsim.Blocks[QueryMsg]     // every query packet issued, retries included: nodes keep them
	all          []netsim.NodeID             // every non-base node ID (allNodes), built on first use
	owners       []netsim.NodeID             // rangeTargets' owner set, reused
	seenAggParts bitTable                    // partial-aggregate message dedup (partRow)
	storedData   seenTable                   // every reading in store, by producer and sample time
	qidNext      uint16
	remaps       int // scheduled remaps run so far (RemapLimit bookkeeping)

	// Reliability layer (DESIGN.md §19). byWire's retry mappings and
	// relNextAt are RAM (lost on restart); openLog and verdicts are
	// journal state that survives like the query log does.
	relNextAt netsim.Time // armed deadline of timerRel; 0 = unarmed
	verdicts  []VerdictRecord
	openLog   []openQuery

	// Reindex pipeline state, reused across rebuilds: the link-quality
	// graph (Reset each epoch), the index builder with its
	// solver/contributor/owner scratch, and the per-node statistics
	// slice buildInput refills.
	graph      *index.Graph
	builder    index.Builder
	statsInput []index.NodeStat
	profProb   []float64
}

// NewBase creates the basestation; index construction begins at the
// absolute virtual time startAt plus one remap interval.
func NewBase(cfg Config, stats *RunStats, startAt netsim.Time) *Base {
	return &Base{cfg: cfg, stats: stats, start: startAt}
}

// CurrentIndex exposes the active storage index (nil before the first
// build), which the scoop facade reports.
func (b *Base) CurrentIndex() *index.Index { return b.cur }

// IndexHistory exposes all disseminated index generations with their
// activation times.
func (b *Base) IndexHistory() []*index.Index {
	out := make([]*index.Index, len(b.records))
	for i, r := range b.records {
		out[i] = r.ix
	}
	return out
}

// Store exposes the basestation's local data store, which the
// experiment harness reads for an aggregate query's ground truth.
func (b *Base) Store() *DataBuffer { return b.store }

// Init implements netsim.App.
func (b *Base) Init(api *netsim.NodeAPI) {
	b.api = api
	b.tree.Init(api, true)
	b.net = sharedOf(api)
	b.store = NewDataBuffer(1<<18, &b.net.readings)
	b.latest = make([]*SummaryMsg, api.N())
	if b.newest == nil { // a restart keeps the history it has, and its index
		b.newest = make([]int32, api.N())
	}
	b.latestHops = make([]uint8, api.N())
	b.chunks.Clear()
	b.byWire = nil
	b.seenAggParts.reset()
	b.storedData.reset()
	b.relNextAt = 0
	b.graph = index.NewGraph(api.N())
	b.builder = index.Builder{Trace: b.cfg.Trace}
	b.statsInput = make([]index.NodeStat, api.N())
	b.profProb = make([]float64, b.cfg.DomainMax-b.cfg.DomainMin+1)
	b.mapGos.Init(api, timerMapping, mappingTrickle, b)
	b.qGos.Init(api, timerQuery, queryTrickle, b)
	b.chunks.Shared = &b.net.gens
	if b.cfg.Preload != nil {
		b.cur = b.cfg.Preload
		if len(b.records) == 0 { // a restart keeps the history it has
			b.records = append(b.records, indexRecord{ix: b.cfg.Preload, at: 0})
		}
	}
	b.tree.Start(timerTree)
	if b.cfg.Preload == nil { // a preloaded index is never recomputed
		// First remap one summary interval after sampling starts, so
		// the first wave of statistics has arrived; then every
		// RemapInterval. A restart mid-run realigns to the next remap
		// boundary instead of scheduling into the past.
		first := b.start + b.cfg.SummaryInterval + 10*netsim.Second
		delay := first - api.Now()
		if delay < 0 {
			delay = b.cfg.RemapInterval - (api.Now()-first)%b.cfg.RemapInterval
		}
		api.SetTimer(timerRemap, delay)
	}
	b.recoverOpenQueries()
}

// Timer implements netsim.App.
func (b *Base) Timer(id int) {
	switch id {
	case timerTree:
		b.tree.OnTimer()
	case timerRemap:
		b.Remap()
		b.remaps++
		if b.cfg.RemapLimit == 0 || b.remaps < b.cfg.RemapLimit {
			b.api.SetTimer(timerRemap, b.cfg.RemapInterval)
		}
	case timerMapping:
		b.mapGos.OnTimer()
	case timerQuery:
		b.qGos.OnTimer()
	case timerRel:
		b.relTimer()
	}
}

// Receive implements netsim.App. Wall time spent here attributes to
// the base-recv phase (nested reindex/agg/chunk spans re-attribute
// themselves).
func (b *Base) Receive(p *netsim.Packet) {
	prev := b.cfg.Prof.Enter(prof.PhaseBaseRecv)
	b.receive(p)
	b.cfg.Prof.Exit(prev)
}

func (b *Base) receive(p *netsim.Packet) {
	b.tree.Observe(p)
	switch m := p.Payload.(type) {
	case *SummaryMsg:
		b.tree.RecordUpstream(p.Origin, p.Src)
		b.onSummary(m, p.Hops)
	case *DataMsg:
		b.tree.RecordUpstream(p.Origin, p.Src)
		b.onData(m)
	case *ReplyMsg:
		b.tree.RecordUpstream(p.Origin, p.Src)
		b.onReply(m)
	case *AggReplyMsg:
		b.tree.RecordUpstream(p.Origin, p.Src)
		b.onAggReply(m)
	case *MappingMsg:
		b.mapGos.Heard(mapKey(m.Chunk.IndexID, m.Chunk.Num))
	case *QueryMsg:
		b.qGos.Heard(queryKey(m.ID))
	}
}

// Snoop implements netsim.App.
func (b *Base) Snoop(p *netsim.Packet) { b.tree.Observe(p) }

func (b *Base) onSummary(m *SummaryMsg, hops uint8) {
	// A copy retransmitted after a lost ack is counted and kept once;
	// the last copy received is the node's latest, duplicates included.
	var c *SummaryMsg
	if b.inHistory.Seen(&b.net.seen, m.Node, uint64(m.SentAt)) {
		c = b.keptCopy(m.Node, m.SentAt)
	} else {
		b.stats.SummariesReceived++
		c = carve(&b.kept)
		c.keep(m)
		b.keepSummary(c)
	}
	b.latest[m.Node], b.latestHops[m.Node] = c, hops
	// Trickle inconsistency detection: a summary advertising an
	// outdated index (a rebooted node reports 0) restarts fast gossip
	// of the current generation's chunks, which would otherwise have
	// retired after MaxRounds and left the node index-less forever.
	if b.cur != nil && m.LastIndexID < b.cur.ID {
		resetChunks(&b.chunks, b.cur.ID, &b.mapGos)
	}
}

// keepSummary appends the base's copy m to the history and links it
// into its node's chain, which runs from the latest SentAt to the
// earliest. Summaries mostly arrive in their node's SentAt order, so
// the link is almost always at the head.
func (b *Base) keepSummary(m *SummaryMsg) {
	b.history = append(b.history, m)
	b.older = append(b.older, 0)
	at := &b.newest[m.Node]
	for *at > 0 && b.history[*at-1].SentAt >= m.SentAt {
		at = &b.older[*at-1]
	}
	b.older[len(b.older)-1], *at = *at, int32(len(b.history))
}

// keptCopy returns the history's copy of node's summary sent at sentAt,
// found down the node's chain: a duplicate is usually of a recent one.
func (b *Base) keptCopy(node netsim.NodeID, sentAt netsim.Time) *SummaryMsg {
	for i := b.newest[node]; i > 0; i = b.older[i-1] {
		if s := b.history[i-1]; s.SentAt == sentAt {
			return s
		}
	}
	panic("core: a summary the base saw is missing from its history")
}

// latestSummaries returns, in ascending node order, each node's retained
// summary with the latest SentAt in [t0, t1], as the planner's
// snapshots: O(N) for a window reaching the present, not the whole
// history. The result is the base's scratch, good until the next call.
func (b *Base) latestSummaries(t0, t1 netsim.Time) []query.SummarySnapshot {
	out := b.snaps[:0]
	for _, i := range b.newest {
		for i > 0 && b.history[i-1].SentAt > t1 {
			i = b.older[i-1]
		}
		if i == 0 || b.history[i-1].SentAt < t0 {
			continue
		}
		s := b.history[i-1]
		out = append(out, query.SummarySnapshot{
			Node: uint16(s.Node), SentAt: s.SentAt,
			Min: s.Min, Max: s.Max, Sum: s.Sum,
			Rate: s.Rate, Hist: s.Hist,
		})
	}
	b.snaps = out
	return out
}

// dropChunks stops gossiping every chunk of a generation older than id
// and drops it, in key order: each Trickle.Remove re-arms the shared
// timer, so the sequence must be deterministic (DESIGN.md §2). Shared
// by base.Remap and node.onChunk so the rule cannot drift between them.
func dropChunks(chunks *index.ChunkSet, id uint16, g *trickle.Trickle) {
	for _, c := range chunks.Before(id) {
		g.Remove(mapKey(c.IndexID, c.Num))
	}
	chunks.DropBefore(id)
}

// resetChunks drops every mapping chunk of generation curID back to
// the fast Trickle interval, in key order (each restart draws
// randomness) by adding it again: every key of the set was added to g,
// and one that retired after MaxRounds is no longer in it. Shared by
// the base and node inconsistency-detection paths so the Trickle rule
// cannot drift between them.
func resetChunks(chunks *index.ChunkSet, curID uint16, g *trickle.Trickle) {
	for _, c := range chunks.Generation(curID) {
		g.Add(mapKey(c.IndexID, c.Num))
	}
}

// onData implements routing rule 4: data arriving at the basestation
// is stored here, never routed back down, and only once: the PC keeps
// the key of every reading it stores, so every later copy is dropped.
func (b *Base) onData(m *DataMsg) {
	for _, r := range m.Readings {
		if b.storedData.Seen(&b.net.seen, netsim.NodeID(r.Producer), uint64(r.Time)) {
			continue
		}
		b.store.Store(r)
		b.stats.markStored(&b.net.seen, r.Producer, r.Time)
		site := trace.StoreOwner
		if m.Owner == b.api.ID() {
			b.stats.StoredAtOwner++
		} else {
			// The network failed to find the owner; the reading washed
			// up at the root (the paper's ~15% case).
			b.stats.StoredAtBase++
			site = trace.StoreBase
		}
		b.cfg.Trace.Emit(trace.Event{Kind: trace.ReadingStored, Node: uint16(b.api.ID()),
			Flag: site, Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
	}
}

// wire returns wire query ID id's entry, growing the table to hold it.
func (b *Base) wire(id uint16) *wireQuery {
	b.byWire = dense.Grow(b.byWire, int(id))
	return &b.byWire[id]
}

// query returns the record of the query first issued as qid; nil for
// an unknown ID and for a retry's.
func (b *Base) query(qid uint16) *pendingQuery {
	if int(qid) < len(b.byWire) {
		return b.byWire[qid].pq
	}
	return nil
}

// collecting resolves a reply's wire query ID to the query still
// collecting for it; nil for an unknown query and for one that already
// settled (reliability layer), whose late replies are dropped.
func (b *Base) collecting(wire uint16) (uint16, *pendingQuery) {
	qid := b.resolveWire(wire)
	if pq := b.query(qid); pq != nil && pq.verdict == VerdictOpen {
		return qid, pq
	}
	return qid, nil
}

func (b *Base) onReply(m *ReplyMsg) {
	qid, pq := b.collecting(m.QueryID)
	if pq == nil || pq.heard.Has(m.Node) {
		return
	}
	pq.heard.Set(m.Node)
	pq.total += m.Count
	b.stats.RepliesReceived++
	b.stats.TuplesReturned += int64(m.Count)
	rec := b.cfg.Trace
	for _, r := range m.Readings {
		if pq.collect(r, b.net) && rec != nil {
			rec.Emit(trace.Event{Kind: trace.ReadingDelivered, Node: uint16(b.api.ID()),
				ID: qid, Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
		}
	}
	b.settleIfComplete(qid, pq)
}

// collect adds r to the query's tuples and reports whether it was new:
// a reading stored at two nodes comes back from both when the query
// reaches both, and is delivered once. The tuples and their keys grow
// in the network's blocks.
func (pq *pendingQuery) collect(r Reading, net *shared) bool {
	if pq.delivered.Seen(&net.seen, netsim.NodeID(r.Producer), uint64(r.Time)) {
		return false
	}
	pq.readings = append(netsim.Grow(&net.readings, pq.readings, 1), r) // doubling from one, as append would
	return true
}

// LastQueryID returns the ID of the most recently issued query.
func (b *Base) LastQueryID() uint16 { return b.qidNext }

// QueryResults returns the tuples collected so far for the query, each
// reading once however many nodes returned it (replies carry at most
// replyMaxReadings tuples each, so large result sets are truncated per
// responding node, as on real motes).
func (b *Base) QueryResults(qid uint16) []Reading {
	if pq := b.query(qid); pq != nil {
		return pq.readings
	}
	return nil
}

// Remap recomputes the storage index from current statistics and
// disseminates it unless it is too similar to the active one
// (paper §4 and §5.3). Exposed for tests and adaptive experiments.
// Wall time attributes to the reindex phase.
func (b *Base) Remap() {
	prev := b.cfg.Prof.Enter(prof.PhaseReindex)
	b.remap()
	b.cfg.Prof.Exit(prev)
}

func (b *Base) remap() {
	in := b.buildInput()
	b.stats.IndexesBuilt++
	id := b.nextID + 1
	ix := b.builder.Build(id, &in)
	b.stats.ReindexWallNanos += b.builder.LastStats().WallNanos
	if b.cur != nil && index.Similarity(ix, b.cur) >= similaritySuppress {
		b.stats.IndexesSuppressed++
		b.cfg.Trace.Emit(trace.Event{Kind: trace.IndexSuppressed, Node: uint16(b.api.ID()), ID: id})
		return
	}
	b.nextID = id
	b.cur = ix
	b.records = append(b.records, indexRecord{ix: ix, at: b.api.Now()})
	// Replace the gossip set with the new generation's chunks.
	dropChunks(&b.chunks, id, &b.mapGos)
	chunks := ix.Chunks(chunkEntries)
	for _, c := range chunks {
		b.chunks.Insert(c)
		b.mapGos.Add(mapKey(c.IndexID, c.Num))
	}
	b.cfg.Trace.Emit(trace.Event{Kind: trace.IndexAdopted, Node: uint16(b.api.ID()),
		ID: id, Value: int64(len(chunks))})
}

// buildInput assembles the indexing algorithm's input from the latest
// summaries (histograms, rates, link qualities) and the query log.
// Every buffer it touches — the link graph, the per-node statistics
// slice, the query-probability row — is basestation-owned scratch
// reused across rebuilds, so the steady-state reindex loop stays off
// the allocator.
func (b *Base) buildInput() index.BuildInput {
	n := b.api.N()
	g := b.graph
	g.Reset()
	// Summaries older than StatStaleAfter are excluded: their nodes
	// have stopped reporting (dead, partitioned), so the next index
	// epoch must neither trust their links nor assign them ownership.
	// With no fresh statistics and no reported links, such a node's
	// ownership cost is infinite and the algorithm routes around it.
	cutoff := netsim.Time(-1)
	if b.cfg.StatStaleAfter > 0 {
		cutoff = b.api.Now() - b.cfg.StatStaleAfter
	}
	fresh := func(s *SummaryMsg) bool { return cutoff < 0 || s.SentAt >= cutoff }
	// Link qualities from summary topology sections…
	for _, s := range b.latest {
		if s == nil || !fresh(s) {
			continue
		}
		for _, nb := range s.Neighbors {
			g.Report(nb.ID, s.Node, nb.Quality)
		}
	}
	// …and from the base's own neighbor table.
	for _, nb := range b.tree.Neighbors.Best(make([]routing.NeighborInfo, 0, b.tree.Neighbors.Len()), n) {
		g.Report(nb.ID, b.api.ID(), nb.Quality)
	}
	nodes := b.statsInput
	for i := range nodes {
		nodes[i] = index.NodeStat{}
	}
	for id, s := range b.latest {
		if s == nil || !fresh(s) {
			continue
		}
		nodes[id] = index.NodeStat{Hist: s.Hist, Rate: s.Rate}
	}
	return index.BuildInput{
		N:        n,
		Base:     b.api.ID(),
		Nodes:    nodes,
		Query:    b.queryProfile(),
		Graph:    g, // the builder runs the sparse shortest-path pass
		MinValue: b.cfg.DomainMin,
		MaxValue: b.cfg.DomainMax,
	}
}

// queryProfile derives P(user queries v) and the query rate from the
// sliding window of recent queries (paper §5.5).
func (b *Base) queryProfile() index.QueryProfile {
	window := b.queryLog
	if len(window) > queryStatsWindow {
		window = window[len(window)-queryStatsWindow:]
	}
	for i := range b.profProb {
		b.profProb[i] = 0
	}
	prof := index.QueryProfile{
		MinValue: b.cfg.DomainMin,
		Prob:     b.profProb,
	}
	if len(window) == 0 {
		return prof
	}
	ranged := 0
	for _, q := range window {
		if !q.ranged {
			continue
		}
		ranged++
		for v := q.lo; v <= q.hi && v <= b.cfg.DomainMax; v++ {
			if v >= b.cfg.DomainMin {
				prof.Prob[v-b.cfg.DomainMin]++
			}
		}
	}
	if ranged > 0 {
		for i := range prof.Prob {
			prof.Prob[i] /= float64(ranged)
		}
	}
	span := b.api.Now() - window[0].at
	if span > 0 {
		prof.Rate = float64(len(window)) / (float64(span) / float64(netsim.Second))
	}
	return prof
}

// IssueQuery disseminates a user query and registers reply tracking.
// It returns the set of targeted nodes (diagnostics/tests), which the
// caller must not modify and which is good until the next query.
func (b *Base) IssueQuery(q workload.Query) []netsim.NodeID {
	b.stats.QueriesIssued++
	lg := loggedQuery{at: b.api.Now()}
	if !q.IsNodeQuery() {
		lg.lo, lg.hi, lg.ranged = q.ValueLo, q.ValueHi, true
	}
	b.queryLog = append(b.queryLog, lg)
	targets := b.targets(q)
	pq := carve(&b.queries)
	pq.plan = query.PlanTuple
	b.issueTuple(pq, q, targets)
	return targets
}

// issueTuple issues pq as a tuple-return query for an already-computed
// target set (shared by IssueQuery and the aggregate planner's tuple
// plan).
func (b *Base) issueTuple(pq *pendingQuery, q workload.Query, targets []netsim.NodeID) {
	msg := b.queryPacket(q, query.OpSelect, false)
	// The base also scans its own store (readings it owns plus
	// washed-up data) at no message cost.
	b.scanLocal(msg, pq)
	b.issue(pq, msg, q, targets)
	b.stats.RepliesExpected += int64(pq.expected)
}

// queryPacket builds the packet asking for q with operator op; issue
// (or recovery) fills in the ID and the bitmap.
func (b *Base) queryPacket(q workload.Query, op query.Op, track bool) *QueryMsg {
	msg := carve(&b.packets)
	*msg = QueryMsg{Op: op, TimeLo: q.TimeLo, TimeHi: q.TimeHi, Track: track}
	if q.IsNodeQuery() {
		msg.ValueLo, msg.ValueHi = 1, 0 // no value constraint
	} else {
		msg.ValueLo, msg.ValueHi = q.ValueLo, q.ValueHi
	}
	return msg
}

// address marks every non-base target in msg's bitmap, counts it into
// pq.expected, and keeps msg as the packet pq's retries narrow.
func (b *Base) address(pq *pendingQuery, msg *QueryMsg, targets []netsim.NodeID) {
	top := netsim.NodeID(b.api.N() - 1)
	pq.heard.fit(top, &b.net.seen.keys) // first: the words a settled query put back
	msg.Bitmap.fit(top, &b.net.seen.keys)
	for _, id := range targets {
		if id == b.api.ID() {
			continue
		}
		msg.Bitmap.Set(id)
		pq.expected++
	}
	pq.msg = msg
}

// issue is the one way a query gets out (paper §5.5), whatever it
// collects: give pq the next query ID, address msg to the targets, put
// it under query gossip when anyone is targeted, and hand the query to
// the reliability layer.
func (b *Base) issue(pq *pendingQuery, msg *QueryMsg, wq workload.Query, targets []netsim.NodeID) {
	b.qidNext++
	msg.ID = b.qidNext
	pq.issued = b.api.Now()
	b.address(pq, msg, targets)
	b.wire(msg.ID).pq = pq
	b.cfg.Trace.Emit(trace.Event{Kind: trace.QueryIssued, Node: uint16(b.api.ID()),
		Flag: uint8(pq.plan), ID: msg.ID, Value: int64(pq.expected)})
	if pq.expected > 0 {
		b.gossip(msg)
	}
	b.relRegister(msg.ID, pq, wq)
}

// gossip registers one outbound query packet (a first issue or a
// retry) and kicks off its dissemination immediately rather than
// waiting for the first Trickle fire.
func (b *Base) gossip(msg *QueryMsg) {
	b.wire(msg.ID).out = msg
	key := queryKey(msg.ID)
	b.qGos.Add(key)
	b.sendQuery(key)
	b.qGos.Heard(key) // count our own broadcast
}

// AnswerFromStore resolves a query entirely against the basestation's
// local store, costing zero network traffic — how the send-to-base
// (BASE) policy answers every query. It returns the match count. The
// query is recorded into the statistics profile exactly like
// IssueQuery, so BASE-policy runs feed index construction the same
// workload signal.
func (b *Base) AnswerFromStore(q workload.Query) int {
	b.stats.QueriesIssued++
	lg := loggedQuery{at: b.api.Now()}
	if !q.IsNodeQuery() {
		lg.lo, lg.hi, lg.ranged = q.ValueLo, q.ValueHi, true
	}
	b.queryLog = append(b.queryLog, lg)
	vlo, vhi := q.ValueLo, q.ValueHi
	var wanted map[netsim.NodeID]bool
	if q.IsNodeQuery() {
		vlo, vhi = 1, 0 // no value constraint
		wanted = make(map[netsim.NodeID]bool, len(q.Nodes))
		for _, id := range q.Nodes {
			wanted[id] = true
		}
	}
	count := 0
	b.store.Select(vlo, vhi, int64(q.TimeLo), int64(q.TimeHi), func(r Reading) {
		if wanted == nil || wanted[netsim.NodeID(r.Producer)] {
			count++
		}
	})
	b.stats.TuplesReturned += int64(count)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.QueryAnswered, Node: uint16(b.api.ID()),
		Value: int64(count)})
	return count
}

func (b *Base) scanLocal(q *QueryMsg, pq *pendingQuery) {
	count := 0
	b.store.Select(q.ValueLo, q.ValueHi, int64(q.TimeLo), int64(q.TimeHi), func(r Reading) {
		count++
		pq.collect(r, b.net)
	})
	pq.total += count
	b.stats.TuplesReturned += int64(count)
}

// targets computes the node set a query must contact: the queried
// node list, or the owners of the value range under every index
// generation active in the query's time window (paper §5.5). Time
// ranges predating the first index — or overlapping a store-local
// generation — involve every node. A range's set is good until the
// next query.
func (b *Base) targets(q workload.Query) []netsim.NodeID {
	if q.IsNodeQuery() {
		return q.Nodes
	}
	ids, _ := b.rangeTargets(q.ValueLo, q.ValueHi, q.TimeLo, q.TimeHi)
	return ids
}

// allNodes returns every non-base node ID, built once per base; the
// caller must not modify it.
func (b *Base) allNodes() []netsim.NodeID {
	if b.all == nil {
		n := b.api.N()
		b.all = make([]netsim.NodeID, 0, n-1)
		for i := 1; i < n; i++ {
			b.all = append(b.all, netsim.NodeID(i))
		}
	}
	return b.all
}

// rangeTargets resolves a value range over a time window to the owner
// node set, and reports whether index generations with non-local
// mappings cover the whole window. An uncovered window (pre-first-
// index time, or a store-local generation in range) targets every
// node. The set is the base's, good until the next call.
func (b *Base) rangeTargets(vlo, vhi int, tlo, thi netsim.Time) ([]netsim.NodeID, bool) {
	if len(b.records) == 0 || tlo < b.records[0].at {
		// Data from before the first index is stored locally on every
		// node.
		return b.allNodes(), false
	}
	out := b.owners[:0]
	for i, rec := range b.records {
		end := netsim.Time(1 << 62)
		if i+1 < len(b.records) {
			end = b.records[i+1].at
		}
		// A small slack covers asynchronous adoption: data produced
		// just after a new generation may still be placed by the old
		// one on laggard nodes.
		start := rec.at
		if i+1 < len(b.records) {
			end += 30 * netsim.Second
		}
		if end < tlo || start > thi {
			continue
		}
		if rec.ix.Local {
			return b.allNodes(), false
		}
		for _, e := range rec.ix.Entries {
			if e.Hi >= vlo && e.Lo <= vhi {
				out = append(out, e.Owner)
			}
		}
	}
	slices.Sort(out)
	b.owners = slices.Compact(out)
	return b.owners, true
}

// QueryMax answers "maximum value in [t0,t1]" directly from stored
// summary messages, costing zero network traffic (paper §5.5's
// optimisation; the base never discards summaries). ok is false when
// no summary covers the window.
func (b *Base) QueryMax(t0, t1 netsim.Time) (int, bool) {
	best, found := 0, false
	for _, s := range b.history {
		if s.SentAt < t0 || s.SentAt > t1 {
			continue
		}
		if !found || s.Max > best {
			best, found = s.Max, true
		}
	}
	if found {
		b.stats.SummaryAnswered++
	}
	return best, found
}

// Gossip implements trickle.Sender for the base's two Trickles.
func (b *Base) Gossip(timerID int, key trickle.Key) {
	if timerID == timerMapping {
		b.sendChunk(key)
	} else {
		b.sendQuery(key)
	}
}

// sendChunk is the mapping-Trickle transmit callback. Wall time
// attributes to the chunk-dissemination phase.
func (b *Base) sendChunk(key trickle.Key) {
	prev := b.cfg.Prof.Enter(prof.PhaseChunk)
	b.sendChunkNow(key)
	b.cfg.Prof.Exit(prev)
}

func (b *Base) sendChunkNow(key trickle.Key) {
	c, ok := b.chunks.Get(chunkOf(key))
	if !ok {
		return
	}
	m := newMapping(&b.net.mappings, c)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.ChunkSent, Node: uint16(b.api.ID()),
		ID: c.IndexID, Value: int64(c.Num)})
	b.api.Broadcast(&netsim.Packet{
		Class:        metrics.Mapping,
		Origin:       b.api.ID(),
		OriginParent: netsim.NoNode,
		Size:         mappingSize(m),
		Payload:      m,
	})
	netsim.Release(m)
}

// sendQuery is the query-Trickle transmit callback.
func (b *Base) sendQuery(key trickle.Key) {
	if int(key) >= len(b.byWire) || b.byWire[key].out == nil {
		return
	}
	q := b.byWire[key].out
	b.api.Broadcast(&netsim.Packet{
		Class:        metrics.Query,
		Origin:       b.api.ID(),
		OriginParent: netsim.NoNode,
		Size:         querySize(q),
		Payload:      q,
	})
}
