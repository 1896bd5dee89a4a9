package core

import (
	"math"
	"slices"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/query"
)

// aggGroundTruth merges every reading currently stored anywhere in
// the network (node stores plus the basestation's) that matches the
// value and time ranges — the oracle an exact aggregate plan must hit.
func aggGroundTruth(tn *testNet, vlo, vhi int, tlo, thi netsim.Time) query.Partial {
	var p query.Partial
	scan := func(buf *DataBuffer) {
		for _, r := range whole(buf) {
			if r.Time >= int64(tlo) && r.Time <= int64(thi) && r.Value >= vlo && r.Value <= vhi {
				p.Add(r.Value)
			}
		}
	}
	scan(tn.base.Store())
	for _, n := range tn.nodes[1:] {
		scan(n.Store())
	}
	return p
}

// quiet is how long before issue time an exact query's window must
// end for every reading in it to have settled into a store: a partial
// batch waits out batchTimeout, and the flush has time to land.
const quiet = batchTimeout + 30*netsim.Second

// The headline acceptance test: the same AVG-over-range query on the
// same seed and topology, answered once by the in-network aggregation
// plan and once by tuple return. The aggregate plan must match ground
// truth exactly and spend at least 3x fewer reply-path bytes.
func TestAggAvgInNetworkBeatsTupleBytes(t *testing.T) {
	run := func(force query.Plan) (ans float64, gt query.Partial, replyBytes int64, tn *testNet) {
		cfg := testConfig()
		cfg.AggForcePlan = force
		// Perfect links: the answer must be bit-exact, so no reading
		// may be duplicated by ack-loss retransmission.
		tn = newTestNet(t, chainTopo(5, 1.0), cfg, nil, 42)
		tn.sim.Run(10 * netsim.Minute)
		now := tn.sim.Now()
		// The window starts after the first index generation (built
		// ~2:40) so it is index-covered, and ends quiet ago so every
		// matching reading has settled into a store.
		q := query.AggQuery{
			Op: query.OpAvg, ValueLo: 0, ValueHi: 20,
			TimeLo: 4 * netsim.Minute, TimeHi: now - quiet,
		}
		gt = aggGroundTruth(tn, q.ValueLo, q.ValueHi, q.TimeLo, q.TimeHi)
		dec := tn.base.IssueAgg(q)
		if dec.Plan != force {
			t.Fatalf("forced %v, planner executed %v", force, dec.Plan)
		}
		tn.sim.Run(now + 30*netsim.Second)
		v, plan, ok := tn.base.AggAnswer(tn.base.LastQueryID())
		if !ok {
			t.Fatalf("plan %v produced no answer", plan)
		}
		bytes := tn.ctr.SentBytesClass(metrics.Reply) + tn.ctr.SentBytesClass(metrics.AggReply)
		return v, gt, bytes, tn
	}

	contribs := func(tn *testNet) (int, int) {
		return tn.base.AggContribs(tn.base.LastQueryID())
	}

	aggAns, aggGT, aggBytes, aggNet := run(query.PlanAgg)
	tupAns, _, tupBytes, _ := run(query.PlanTuple)

	want, ok := aggGT.Answer(query.OpAvg)
	if !ok {
		t.Fatal("ground truth empty")
	}
	if math.Abs(aggAns-want) > 1e-9 {
		t.Fatalf("in-network AVG = %v, ground truth %v", aggAns, want)
	}
	if aggBytes == 0 || tupBytes == 0 {
		t.Fatalf("reply bytes agg=%d tuple=%d; a plan sent nothing", aggBytes, tupBytes)
	}
	if tupBytes < 3*aggBytes {
		t.Fatalf("tuple plan spent %d reply bytes vs agg %d: less than the required 3x win",
			tupBytes, aggBytes)
	}
	// The tuple answer drifts once per-node truncation kicks in; it
	// must still be in the right ballpark, underscoring why the agg
	// plan is both cheaper AND exact.
	if math.Abs(tupAns-want) > float64(want) {
		t.Fatalf("tuple AVG %v wildly off ground truth %v", tupAns, want)
	}
	if got, exp := contribs(aggNet); exp == 0 || got < exp {
		t.Fatalf("only %d of %d targeted nodes contributed", got, exp)
	}
}

// COUNT and SUM also come back exact through in-network combining,
// and intermediate chain nodes actually combine (fewer partials reach
// the base than nodes answered).
func TestAggCountSumExactWithCombining(t *testing.T) {
	cfg := testConfig()
	cfg.AggForcePlan = query.PlanAgg
	tn := newTestNet(t, chainTopo(6, 1.0), cfg, nil, 7)
	tn.sim.Run(10 * netsim.Minute)
	now := tn.sim.Now()
	vlo, vhi := 0, 20
	tlo, thi := 4*netsim.Minute, now-quiet
	gt := aggGroundTruth(tn, vlo, vhi, tlo, thi)

	for _, op := range []query.Op{query.OpCount, query.OpSum} {
		tn.base.IssueAgg(query.AggQuery{Op: op, ValueLo: vlo, ValueHi: vhi, TimeLo: tlo, TimeHi: thi})
		qid := tn.base.LastQueryID()
		tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
		got, _, ok := tn.base.AggAnswer(qid)
		want, _ := gt.Answer(op)
		if !ok || math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v = %v (ok=%v), ground truth %v", op, got, ok, want)
		}
	}
	if tn.stats.AggCombined == 0 {
		t.Fatal("no in-network combining happened on a 5-hop chain")
	}
	if tn.stats.AggPartialsReceived >= tn.stats.AggRepliesSent {
		t.Fatalf("combining saved nothing: %d partials at base, %d flushes sent",
			tn.stats.AggPartialsReceived, tn.stats.AggRepliesSent)
	}
}

// Planner integration: a generous accuracy budget turns the query
// into a zero-cost summary answer whose error bound is honoured; a
// zero budget forces an exact network plan.
func TestAggPlannerSelectsSummaryWithinBudget(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 9)
	tn.sim.Run(10 * netsim.Minute)
	now := tn.sim.Now()
	q := query.AggQuery{
		Op: query.OpAvg, ValueLo: 0, ValueHi: 20,
		TimeLo: 3 * netsim.Minute, TimeHi: now,
		ErrBudget: 2.0,
	}
	queriesBefore := tn.ctr.Snapshot().Query
	dec := tn.base.IssueAgg(q)
	if dec.Plan != query.PlanSummary {
		t.Fatalf("generous budget chose %v, want summary", dec.Plan)
	}
	if dec.EstError > q.ErrBudget {
		t.Fatalf("summary decision error bound %v exceeds budget %v", dec.EstError, q.ErrBudget)
	}
	ans, _, ok := tn.base.AggAnswer(tn.base.LastQueryID())
	if !ok {
		t.Fatal("summary plan has no immediate answer")
	}
	// The error bound must actually hold against ground truth.
	gt := aggGroundTruth(tn, q.ValueLo, q.ValueHi, q.TimeLo, q.TimeHi)
	want, _ := gt.Answer(query.OpAvg)
	if want > 0 && math.Abs(ans-want)/want > dec.EstError+0.5 {
		t.Fatalf("summary answer %v vs truth %v breaks bound %v", ans, want, dec.EstError)
	}
	tn.sim.Run(tn.sim.Now() + 10*netsim.Second)
	if got := tn.ctr.Snapshot().Query; got != queriesBefore {
		t.Fatalf("summary plan cost %v query packets", got-queriesBefore)
	}
	if tn.stats.PlanSummaryChosen != 1 {
		t.Fatalf("PlanSummaryChosen = %d", tn.stats.PlanSummaryChosen)
	}

	// Exactness required: the planner must pick a network plan.
	q.ErrBudget = 0
	dec = tn.base.IssueAgg(q)
	if dec.Plan == query.PlanSummary {
		t.Fatal("zero budget still served from summaries")
	}
	if dec.EstError != 0 {
		t.Fatalf("exact plan carries error bound %v", dec.EstError)
	}
}

// A window reaching back before the first index generation cannot be
// index-routed: the planner floods.
func TestAggFloodsUncoveredWindow(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 11)
	tn.sim.Run(8 * netsim.Minute)
	dec := tn.base.IssueAgg(query.AggQuery{
		Op: query.OpCount, ValueLo: 0, ValueHi: 20,
		TimeLo: 0, TimeHi: tn.sim.Now(), // t=0 predates any index
	})
	if dec.Plan != query.PlanFlood {
		t.Fatalf("uncovered window planned %v, want flood", dec.Plan)
	}
	tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
	got, exp := tn.base.AggContribs(tn.base.LastQueryID())
	if exp != 4 || got < exp {
		t.Fatalf("flood reached %d of %d nodes", got, exp)
	}
}

// Quantile queries: within budget they are served from summaries for
// free; with a zero budget they ship tuples and the base computes the
// quantile over the returned set — never an in-network plan, whose
// partials cannot carry a quantile.
func TestAggQuantilePlans(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 13)
	tn.sim.Run(10 * netsim.Minute)
	q := query.AggQuery{
		Op: query.OpQuantile, Quantile: 0.5,
		ValueLo: 0, ValueHi: 20,
		TimeLo: 3 * netsim.Minute, TimeHi: tn.sim.Now(),
		ErrBudget: 3.0,
	}
	dec := tn.base.IssueAgg(q)
	if dec.Plan != query.PlanSummary {
		t.Fatalf("quantile planned %v, want summary", dec.Plan)
	}
	ans, _, ok := tn.base.AggAnswer(tn.base.LastQueryID())
	if !ok || ans < 0 || ans > 20 {
		t.Fatalf("median estimate %v (ok=%v) outside domain", ans, ok)
	}

	q.ErrBudget = 0
	q.TimeHi = tn.sim.Now()
	dec = tn.base.IssueAgg(q)
	if dec.Plan != query.PlanTuple {
		t.Fatalf("exact quantile planned %v, want tuple", dec.Plan)
	}
	qid := tn.base.LastQueryID()
	tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
	ans, _, ok = tn.base.AggAnswer(qid)
	if !ok || ans < 0 || ans > 20 {
		t.Fatalf("tuple-plan median %v (ok=%v) outside domain", ans, ok)
	}
}

// Retransmitted partial-aggregate messages (same sender, query, seq)
// must not double count, and over-TTL partials are dropped.
func TestAggPartialDedupAndTTL(t *testing.T) {
	cfg := testConfig()
	tn := newTestNet(t, chainTopo(3, 0.95), cfg, nil, 17)
	tn.sim.Run(3 * netsim.Minute)
	n1 := tn.nodes[1]
	m := &AggReplyMsg{QueryID: 500, Node: 2, Seq: 0, Contribs: 1,
		Part: query.Partial{Count: 4, Sum: 40, Min: 5, Max: 15}}
	n1.onAggPartial(m, 0)
	n1.onAggPartial(m, 0) // retransmission duplicate
	if len(n1.aggPending) != 1 || n1.aggPending[0].qid != 500 || n1.aggPending[0].part.Count != 4 || n1.aggPending[0].contribs != 1 {
		t.Fatalf("dedup failed: %+v", n1.aggPending)
	}
	over := &AggReplyMsg{QueryID: 501, Node: 2, Seq: 0, Contribs: 1,
		Part: query.Partial{Count: 1, Sum: 1}}
	n1.onAggPartial(over, uint8(maxHops+1))
	if len(n1.aggPending) != 1 {
		t.Fatal("over-TTL partial accepted")
	}
}

// partialLog is an App that logs the (query, seq) of every partial it
// receives, in order.
type partialLog struct{ got [][2]int }

func (l *partialLog) Init(*netsim.NodeAPI) {}
func (l *partialLog) Receive(p *netsim.Packet) {
	if m, ok := p.Payload.(*AggReplyMsg); ok {
		l.got = append(l.got, [2]int{int(m.QueryID), int(m.Seq)})
	}
}
func (l *partialLog) Snoop(*netsim.Packet) {}
func (l *partialLog) Timer(int)            {}

// TestFlushVisitsLiveBuffersInOrder: a node's combine buffers are the
// live ones only, ascending by query ID whatever order they were made
// in; a flush launches the ready ones in that order and keeps the held
// one, in place; and a partial arriving after its query's flush opens a
// new buffer, launched with the next flush sequence number.
func TestFlushVisitsLiveBuffersInOrder(t *testing.T) {
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, chainTopo(3, 1), metrics.NewCounters(), netsim.DefaultParams())
	node := NewNode(testConfig(), &RunStats{}, idSampler, 60*netsim.Minute)
	log := &partialLog{}
	net.Attach(0, log)
	net.Attach(1, node)
	net.Attach(2, &sinkApp{})
	net.Start()
	adoptParent(t, sim, node, 1)
	partial := func(qid uint16, from netsim.NodeID) {
		node.onAggPartial(&AggReplyMsg{QueryID: qid, Node: from, Contribs: 1,
			Part: query.Partial{Count: 1, Sum: 1, Min: 1, Max: 1}}, 1)
	}
	pending := func(want ...int) {
		t.Helper()
		var got []int
		for _, e := range node.aggPending {
			got = append(got, int(e.qid))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("at %v the live buffers are for queries %v, want %v", sim.Now(), got, want)
		}
	}
	sent := func(want ...[2]int) {
		t.Helper()
		if !slices.Equal(log.got, want) {
			t.Fatalf("at %v the parent heard partials %v, want %v", sim.Now(), log.got, want)
		}
	}
	for _, q := range []uint16{900, 5, 300, 64, 70} {
		partial(q, 2)
	}
	e := node.aggEntry(300) // held for its own scan, due long after the flush
	e.wantOwn, e.dueOwn, e.q = true, sim.Now()+10*netsim.Second, &QueryMsg{ID: 300, ValueHi: 20, TimeHi: sim.Now()}
	pending(5, 64, 70, 300, 900)

	sim.Run(sim.Now() + 2*netsim.Second) // the flush, aggFlushDelay after the partials
	sent([2]int{5, 0}, [2]int{64, 0}, [2]int{70, 0}, [2]int{900, 0})
	pending(300)

	partial(5, 3) // late: query 5 flushed already
	pending(5, 300)
	sim.Run(sim.Now() + 2*netsim.Second)
	sent([2]int{5, 0}, [2]int{64, 0}, [2]int{70, 0}, [2]int{900, 0}, [2]int{5, 1})
	pending(300)

	sim.Run(sim.Now() + 10*netsim.Second)
	sent([2]int{5, 0}, [2]int{64, 0}, [2]int{70, 0}, [2]int{900, 0}, [2]int{5, 1}, [2]int{300, 0})
	pending()
	if want := []uint32{5<<8 | 2, 64<<8 | 1, 70<<8 | 1, 300<<8 | 1, 900<<8 | 1}; !slices.Equal(node.aggSeq, want) {
		t.Fatalf("next flush sequence numbers %x, want %x", node.aggSeq, want)
	}
}

// Duplicate aggregate query packets produce exactly one local answer.
func TestDuplicateAggQueriesAnsweredOnce(t *testing.T) {
	tn := newTestNet(t, meshTopo(3, 0.95), testConfig(), nil, 19)
	tn.sim.Run(6 * netsim.Minute)
	q := &QueryMsg{ID: 600, Op: query.OpCount, ValueLo: 0, ValueHi: 20,
		TimeLo: 0, TimeHi: tn.sim.Now()}
	q.Bitmap.Set(1)
	tn.nodes[1].onQuery(q)
	tn.nodes[1].onQuery(q)
	tn.nodes[1].onQuery(q)
	tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
	if tn.stats.AggQueriesHeard != 1 {
		t.Fatalf("node heard the same agg query %d times", tn.stats.AggQueriesHeard)
	}
	if tn.stats.AggRepliesSent != 1 {
		t.Fatalf("node flushed %d replies to one agg query", tn.stats.AggRepliesSent)
	}
}
