package core

import (
	"runtime"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/query"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// leastMallocs returns the fewest objects run allocates in three calls,
// each after boot, so a runtime allocation between two readings (a
// collector worker starting) cannot count.
func leastMallocs(boot func(int), run func()) uint64 {
	least := ^uint64(0)
	for k := range 3 {
		boot(k)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestSummaryPathAllocs holds a summary's whole way to zero objects a
// message: node 2 sends one from the network's free list, node 1 relays
// the message it heard, and the basestation copies what it keeps, while
// node 1 sends its own. What the base keeps costs one object per block
// of 64 copies (its netsim.Blocks) and the doubling of its history, not
// one a summary; and every copy it keeps is its own, with Hist.Counts and
// Neighbors slicing its own arrays, never the recycled message.
func TestSummaryPathAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, chainTopo(3, 1), metrics.NewCounters(), netsim.DefaultParams())
	cfg, stats := testConfig(), &RunStats{}
	base := NewBase(cfg, stats, 60*netsim.Minute) // no remap while the test runs
	nodes := NewNodes(3, cfg, stats, idSampler, 60*netsim.Minute)
	net.Attach(0, base)
	net.Attach(1, nodes[1])
	net.Attach(2, nodes[2])
	net.Start()
	sim.Run(3 * netsim.Minute) // the tree forms: 2 → 1 → 0
	if nodes[1].tree.Parent() != 0 || nodes[2].tree.Parent() != 1 {
		t.Fatalf("parents %d and %d, want 0 and 1", nodes[1].tree.Parent(), nodes[2].tree.Parent())
	}
	base.api.CancelTimer(timerTree)
	for _, n := range nodes[1:] {
		n.api.CancelTimer(timerTree)
		for v := range 8 {
			n.recent.Add(int(n.api.ID()) + v)
		}
	}
	const steps = 200
	send := func() {
		for range steps {
			nodes[2].sendSummary()
			nodes[1].sendSummary()
			sim.Run(sim.Now() + netsim.Second)
		}
	}
	send() // warms the free lists, the queue rings and the dedup tables
	least := leastMallocs(func(int) {}, send)
	t.Logf("%d summaries sent, relayed and kept: %d objects", 2*steps, least)
	if least > 2*steps/16 && !raceEnabled {
		t.Fatalf("sending, relaying and keeping %d summaries allocates %d objects, want at most one per 16", 2*steps, least)
	}
	if got, want := len(base.history), 4*2*steps; got != want {
		t.Fatalf("the base kept %d summaries, want %d", got, want)
	}
	seen := map[*SummaryMsg]bool{}
	last := map[netsim.NodeID]netsim.Time{}
	newest := map[netsim.NodeID]*SummaryMsg{}
	for _, s := range base.history {
		newest[s.Node] = s
		if seen[s] {
			t.Fatalf("the history holds node %d's summary at %v twice: a kept summary was recycled", s.Node, s.SentAt)
		}
		seen[s] = true
		if s.SentAt <= last[s.Node] {
			t.Fatalf("node %d's summary at %v follows one at %v: a kept summary was recycled", s.Node, s.SentAt, last[s.Node])
		}
		last[s.Node] = s.SentAt
		if len(s.Hist.Counts) == 0 || &s.Hist.Counts[0] != &s.bins[0] || len(s.Neighbors) == 0 || &s.Neighbors[0] != &s.nbrs[0] {
			t.Fatalf("node %d's kept summary does not slice its own arrays", s.Node)
		}
		if s.Min != int(s.Node) || s.Max != int(s.Node)+7 {
			t.Fatalf("node %d's kept summary reads min %d max %d, want %d and %d", s.Node, s.Min, s.Max, s.Node, s.Node+7)
		}
	}
	if base.latest[1] != newest[1] || base.latest[2] != newest[2] {
		t.Fatal("the base's latest summaries are not its newest copies")
	}
}

// resentLog counts agg-resent trace events.
type resentLog struct{ n int }

func (l *resentLog) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.AggResent {
			l.n++
		}
	})
}
func (l *resentLog) Close() error { return nil }

// partialSink records the aggregate partials it receives.
type partialSink struct {
	sinkApp
	parts []AggReplyMsg // copies: a partial is recycled
}

func (s *partialSink) Receive(p *netsim.Packet) {
	s.sinkApp.Receive(p)
	if m, ok := p.Payload.(*AggReplyMsg); ok {
		s.parts = append(s.parts, AggReplyMsg{QueryID: m.QueryID, Node: m.Node, Seq: m.Seq, Contribs: m.Contribs, Part: m.Part})
	}
}

// TestPartialPathZeroAllocs holds an aggregate partial's way through a
// relay to zero allocations once the free lists are warm: node 1 folds
// in a descendant's partial and its own share, flushes the combined
// partial toward its parent over a lossy link, and resends it when the
// link layer gives up — the partial holds its resend state and its
// sender's reference until the last verdict — for 40 queries after each
// reboot. Every partial the parent hears is the one node 1 sent.
func TestPartialPathZeroAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, chainTopo(3, 1), metrics.NewCounters(), netsim.DefaultParams())
	var log resentLog
	cfg := testConfig()
	cfg.Trace = trace.New(func() int64 { return int64(sim.Now()) }, &log)
	cfg.Trace.Only(trace.AggResent)
	node := NewNode(cfg, &RunStats{}, idSampler, 60*netsim.Minute)
	sink := &partialSink{parts: make([]AggReplyMsg, 0, 4096)}
	net.Attach(0, sink)
	net.Attach(1, node)
	net.Attach(2, &sinkApp{})
	net.Start()
	// Both directions lose most frames: many sends fail, data or ack
	// lost, and some resends get through.
	net.ScaleLink(0, 1, 0.35)
	net.ScaleLink(1, 0, 0.35)

	const queries = 40
	heard := &AggReplyMsg{Node: 2, Contribs: 1}
	heardPkt := &netsim.Packet{Class: metrics.AggReply, Hops: 1, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: heard}
	qs := make([]QueryMsg, queries+1)
	run := func() {
		for qid := uint16(1); qid <= queries; qid++ {
			q := &qs[qid]
			*q = QueryMsg{ID: qid, Op: query.OpSum, ValueLo: 1, ValueHi: 0}
			node.scheduleOwnPartial(q) // node 1 is targeted: its share folds in at the flush
			heard.QueryID, heard.Part = qid, query.Partial{}
			heard.Part.Add(int(qid))
			heardPkt.Seq++
			node.Receive(heardPkt)
			sim.Run(sim.Now() + 10*netsim.Second)
		}
	}
	boot := func(k int) {
		net.Restart(1)
		adoptParent(t, sim, node, uint32(2+k))
	}
	adoptParent(t, sim, node, 1)
	run() // warms the free lists, the queue ring and the MAC pools
	least := leastMallocs(boot, run)
	if least != 0 && !raceEnabled {
		t.Fatalf("combining, flushing and resending %d partials allocates %d objects, want 0", queries, least)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if log.n < queries {
		t.Fatalf("%d partials resent in %d queries; the link must fail sends for the test to hold resends", log.n, 4*queries)
	}
	t.Logf("%d queries: %d objects, %d partials resent, %d heard", 4*queries, least, log.n, len(sink.parts))
	if len(sink.parts) < queries {
		t.Fatalf("the parent heard %d partials in %d queries; the link must let sends through", len(sink.parts), 4*queries)
	}
	for _, m := range sink.parts {
		if m.Node != 1 || m.Contribs != 2 || m.QueryID < 1 || m.QueryID > queries {
			t.Fatalf("the parent heard partial %+v, want node 1's with 2 contributors for a query in 1–%d", m, queries)
		}
		if m.Part.Count != 1 || m.Part.Sum != int64(m.QueryID) {
			t.Fatalf("query %d's partial folds %d readings summing to %d, want the descendant's one, %d (node 1 stores none)",
				m.QueryID, m.Part.Count, m.Part.Sum, m.QueryID)
		}
	}
}

// TestAnswerAndRelayZeroAllocs holds tuple replies to zero allocations once
// the reply free list is warm: node 1 answers a query from its flash
// with as many tuples as a reply carries, and relays a descendant's
// full reply, every reply's readings array reused through recycling —
// for 40 queries after each reboot.
func TestAnswerAndRelayZeroAllocs(t *testing.T) {
	sim, net, node, sink := relayFixture(t)
	const queries = 40
	relayed := &ReplyMsg{Node: 2}
	for v := range replyMaxReadings + 5 {
		relayed.Readings = append(relayed.Readings, Reading{Producer: 2, Value: v, Time: int64(v)})
	}
	relayed.Count = len(relayed.Readings)
	relayed.Readings = relayed.Readings[:replyMaxReadings]
	relayedPkt := &netsim.Packet{Class: metrics.Reply, Hops: 1, Src: 2, Dst: 1, Origin: 2, OriginParent: 1, Payload: relayed}
	qs := make([]QueryMsg, queries+1)
	run := func() {
		for qid := uint16(1); qid <= queries; qid++ {
			q := &qs[qid]
			*q = QueryMsg{ID: qid, ValueLo: 1, ValueHi: 0, TimeLo: 0, TimeHi: 60 * netsim.Minute}
			node.answer(q)
			relayed.QueryID = qid
			relayedPkt.Seq++
			node.Receive(relayedPkt)
			sim.Run(sim.Now() + netsim.Second)
		}
	}
	fill := func() {
		for v := range replyMaxReadings + 5 {
			node.store.Store(Reading{Producer: 1, Value: v, Time: int64(v)})
		}
	}
	boot := func(k int) {
		net.Restart(1)
		adoptParent(t, sim, node, uint32(2+k))
		fill()
	}
	fill()
	run() // warms the reply free list and its readings arrays
	least := leastMallocs(boot, run)
	if least != 0 && !raceEnabled {
		t.Fatalf("answering and relaying %d full replies allocates %d objects, want 0", 2*queries, least)
	}
	if got := sink.got[metrics.Reply]; got != 4*2*queries {
		t.Fatalf("the parent received %d replies, want %d", got, 4*2*queries)
	}
}

// TestQueryBitmapsGrowOnce: at N = 1000 the basestation addresses a
// query to all 999 motes in ascending ID order and marks each one
// heard, as their replies would. Both bitmaps are fitted to the
// network's highest node before the first mark, their words taken from
// the network's blocks, so a query allocates at most one object, a new
// block — where regrowing each bitmap 1.5× at a time as the IDs rose
// made six arrays a bitmap. A settled query puts its heard words back,
// so after the first query every query issued and settled hears into
// the words the one before it put back; its packet's words are its own,
// since nodes keep the packet.
func TestQueryBitmapsGrowOnce(t *testing.T) {
	const n = 1000
	topo := netsim.NewTopology(n)
	topo.Pos = make([]netsim.Point, n)
	net := netsim.NewNetwork(netsim.NewSimulator(1), topo, metrics.NewCounters(), netsim.DefaultParams())
	cfg := testConfig()
	cfg.QueryDeadline, cfg.QueryRetryMax = netsim.Minute, 2
	base := NewBase(cfg, &RunStats{}, 60*netsim.Minute)
	net.Attach(0, base)
	net.Start()
	targets := make([]netsim.NodeID, 0, n-1)
	for id := netsim.NodeID(1); id < n; id++ {
		targets = append(targets, id)
	}
	var pq *pendingQuery
	var msg *QueryMsg
	least := leastMallocs(func(int) { pq, msg = carve(&base.queries), carve(&base.packets) }, func() {
		base.address(pq, msg, targets)
		for _, id := range targets {
			pq.heard.Set(id)
		}
	})
	if least > 1 && !raceEnabled {
		t.Fatalf("addressing a query to %d nodes and hearing each allocates %d objects, want at most 1", n-1, least)
	}
	if pq.expected != n-1 || msg.Bitmap.Count() != n-1 || pq.heard.Count() != n-1 {
		t.Fatalf("expected %d, %d marked, %d heard; want %d each", pq.expected, msg.Bitmap.Count(), pq.heard.Count(), n-1)
	}
	if got, want := msg.Bitmap.Bytes(), (n-1)/8+1; got != want {
		t.Fatalf("the query's bitmap is %d bytes on the air, want %d", got, want)
	}

	words := func(b *Bitmap) *uint64 { return &b.hi[:1][0] }
	var heard, sent *uint64
	for k := range 20 {
		base.IssueQuery(workload.Query{Nodes: targets})
		qid := base.LastQueryID()
		pq := base.query(qid)
		for _, id := range targets[k:] {
			pq.heard.Set(id)
		}
		if k > 0 && words(&pq.heard) != heard {
			t.Fatalf("query %d hears into new words, not those query %d put back", k, k-1)
		}
		if w := words(&base.byWire[qid].out.Bitmap); w == sent || w == words(&pq.heard) {
			t.Fatalf("query %d's packet shares its bitmap words", k)
		}
		heard, sent = words(&pq.heard), words(&base.byWire[qid].out.Bitmap)
		base.FinalizeVerdicts()
		if pq.verdict == VerdictOpen || len(pq.heard.hi) != 0 {
			t.Fatalf("query %d settled %v, holding %d heard words", k, pq.verdict, len(pq.heard.hi))
		}
	}
}
