package core

import (
	"sort"

	"scoop/internal/dense"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/prof"
	"scoop/internal/query"
	"scoop/internal/storage"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// aggCombine is one query's in-network combining buffer on a node:
// the merged partial state, how many targeted nodes it folds in, the
// deepest hop count any merged partial travelled (loop TTL), and —
// for targeted nodes — the deadline for folding in the local scan.
type aggCombine struct {
	part     query.Partial
	contribs int
	hops     uint8
	wantOwn  bool
	dueOwn   netsim.Time
	q        *QueryMsg // set while wantOwn, for the local scan
	retries  int       // flush attempts deferred for lack of a route
	nodes    Bitmap    // contributor bitmap (Track queries only)
}

// Retry budgets. A combined partial folds a whole subtree, so unlike
// fire-and-forget tuple replies a routeless node holds it and retries
// rather than losing it, and a launched one gets one app-level resend
// after the MAC gives up. Resends go to the SAME parent the first
// attempt used: the frame may have been delivered with only the ack
// lost, and per-receiver (sender,query,seq) dedup only protects
// against double counting when the duplicate lands on the same
// receiver. More resends would stack full MAC retry cycles onto
// hopeless links and burn the very bytes combining saves.
const (
	aggRouteRetries = 12 // flush deferrals while no parent is known
	aggSendRetries  = 1  // app-level resends of one launched partial
)

// aggPartKey builds the per-sender (query, seq) dedup key for combined
// partial-aggregate messages (the sender is the seenTable row).
func aggPartKey(qid uint16, seq uint8) uint64 {
	return uint64(qid)<<8 | uint64(seq)
}

// scanPartial folds every stored reading matching the value and time
// ranges into a partial aggregate.
func scanPartial(store *storage.DataBuffer, vlo, vhi int, tlo, thi netsim.Time) query.Partial {
	var p query.Partial
	store.Select(vlo, vhi, int64(tlo), int64(thi), func(r storage.Reading) { p.Add(r.Value) })
	return p
}

// scheduleOwnPartial is how a targeted node answers an aggregate
// query: it schedules the local scan so that deep nodes answer before
// their ancestors flush (paper-lineage TAG epoch scheduling, adapted to
// Scoop's jittered timers).
func (n *Node) scheduleOwnPartial(q *QueryMsg) {
	n.stats.AggQueriesHeard++
	e := n.aggEntry(q.ID)
	e.wantOwn = true
	e.q = q
	hops := int(n.tree.Hops())
	if hops > maxHops {
		hops = 1 // routeless nodes answer early; the reply drops anyway
	}
	// Deep nodes answer first so ancestors can combine; the wide
	// random spread desynchronises siblings, whose simultaneous
	// partials would otherwise collide like a reply storm.
	hold := aggCombineWindow / netsim.Time(1+hops)
	jitter := netsim.Time(50 + n.api.RandIntn(int(aggCombineWindow/2)))
	e.dueOwn = n.api.Now() + hold + jitter
	n.armAggFlush(e.dueOwn)
}

// onAggPartial merges a descendant's combined partial, heard in a frame
// with header hops, into the local buffer and holds it briefly for
// further combining — the in-network aggregation step that replaces
// per-hop tuple forwarding.
func (n *Node) onAggPartial(m *AggReplyMsg, hops uint8) {
	prev := n.cfg.Prof.Enter(prof.PhaseAggCombine)
	n.aggPartial(m, hops)
	n.cfg.Prof.Exit(prev)
}

func (n *Node) aggPartial(m *AggReplyMsg, hops uint8) {
	if int(hops) > maxHops {
		return
	}
	if n.seenAggParts.Seen(m.Node, aggPartKey(m.QueryID, m.Seq)) {
		return
	}
	e := n.aggEntry(m.QueryID)
	e.part.Merge(m.Part)
	e.contribs += int(m.Contribs)
	e.nodes.Or(&m.Nodes)
	if h := hops + 1; h > e.hops {
		e.hops = h
	}
	n.stats.AggCombined++
	n.cfg.Trace.Emit(trace.Event{Kind: trace.AggCombined, Node: uint16(n.api.ID()),
		Peer: uint16(m.Node), ID: m.QueryID, Value: int64(e.contribs)})
	n.armAggFlush(n.api.Now() + aggFlushDelay)
}

// aggEntry returns (allocating if needed) the combine buffer for qid.
func (n *Node) aggEntry(qid uint16) *aggCombine {
	n.aggPending = dense.Grow(n.aggPending, int(qid))
	if n.aggPending[qid] == nil {
		n.aggPending[qid] = &aggCombine{}
	}
	return n.aggPending[qid]
}

// armAggFlush arms (or pulls forward) the shared flush timer.
func (n *Node) armAggFlush(at netsim.Time) {
	if n.aggFlushAt != 0 && n.aggFlushAt <= at {
		return
	}
	n.aggFlushAt = at
	n.api.SetTimer(timerAggFlush, at-n.api.Now())
}

// flushAgg runs when the flush timer fires: fold in due local scans,
// launch every ready combine buffer toward the basestation, and
// re-arm for entries still waiting on their own scan deadline.
func (n *Node) flushAgg() {
	prev := n.cfg.Prof.Enter(prof.PhaseAggCombine)
	n.flushAggNow()
	n.cfg.Prof.Exit(prev)
}

func (n *Node) flushAggNow() {
	now := n.api.Now()
	n.aggFlushAt = 0
	var next netsim.Time
	// The dense buffer is walked in ascending query-ID order — the
	// same order the pre-scale-tier map-and-sort produced.
	for id := range n.aggPending {
		e := n.aggPending[id]
		if e == nil {
			continue
		}
		qid := uint16(id)
		if e.wantOwn {
			if now < e.dueOwn {
				// Hold the whole buffer until the local scan folds in.
				if next == 0 || e.dueOwn < next {
					next = e.dueOwn
				}
				continue
			}
			e.part.Merge(scanPartial(n.store, e.q.ValueLo, e.q.ValueHi, e.q.TimeLo, e.q.TimeHi))
			e.contribs++
			if e.q.Track {
				e.nodes.Set(n.api.ID())
			}
			e.wantOwn = false
			e.q = nil
		}
		if !n.tree.HasRoute() && e.retries < aggRouteRetries {
			// The partial folds a whole subtree; hold it until the
			// parent comes back rather than losing it.
			e.retries++
			retry := now + aggFlushDelay
			if next == 0 || retry < next {
				next = retry
			}
			continue
		}
		n.aggPending[qid] = nil
		n.sendAggReply(qid, e)
	}
	if next != 0 {
		n.armAggFlush(next)
	}
}

// sendAggReply launches one combined partial toward the parent. Like
// tuple replies, a targeted node reports even when nothing matched,
// so the basestation can account for coverage.
func (n *Node) sendAggReply(qid uint16, e *aggCombine) {
	if e.contribs == 0 && e.part.Empty() {
		return
	}
	if !n.tree.HasRoute() {
		return // retries exhausted; the partial is lost
	}
	n.aggSeq = dense.Grow(n.aggSeq, int(qid))
	seq := n.aggSeq[qid]
	n.aggSeq[qid] = seq + 1
	m := &AggReplyMsg{
		QueryID:  qid,
		Node:     n.api.ID(),
		Seq:      seq,
		Contribs: uint16(e.contribs),
		Part:     e.part,
		Nodes:    e.nodes,
	}
	n.stats.AggRepliesSent++
	// onAggPartial already counted one hop per merge; a fresh local
	// partial starts at zero.
	(&aggSend{n: n, m: m, hops: e.hops, to: n.tree.Parent()}).send()
}

// aggSend sends one partial to the parent chosen at launch, re-sending
// the identical message to the SAME destination on link-layer failure:
// per-receiver (sender, query, seq) dedup then makes duplicates
// idempotent, so at-least-once delivery cannot double count.
// (Re-routing a resend to a new parent could double count: the first
// frame may have been delivered with only its ack lost.)
type aggSend struct {
	n       *Node
	m       *AggReplyMsg
	hops    uint8 // the frame's header Hops
	to      netsim.NodeID
	attempt int
}

func (s *aggSend) send() {
	s.n.api.Send(&netsim.Packet{
		Class:        metrics.AggReply,
		Hops:         s.hops,
		Dst:          s.to,
		Origin:       s.n.api.ID(),
		OriginParent: s.n.tree.Parent(),
		Size:         aggReplySize(s.m),
		Payload:      s.m,
	}, s)
}

func (s *aggSend) SendDone(ok bool) {
	if !ok && s.attempt < aggSendRetries {
		s.attempt++
		s.n.cfg.Trace.Emit(trace.Event{Kind: trace.AggResent, Node: uint16(s.n.api.ID()),
			ID: s.m.QueryID, Aux: int64(s.attempt)})
		s.send()
	}
}

// ---------------------------------------------------------------------
// Basestation side: plan selection, dissemination, answer assembly.

// IssueAgg plans and executes one aggregate query, returning the
// planner's decision. Depending on the plan the answer is available
// immediately (summary), or assembles as partials / tuple replies
// arrive; AggAnswer reads it.
func (b *Base) IssueAgg(q query.AggQuery) query.Decision {
	b.stats.AggQueriesIssued++
	// Aggregate value ranges feed the same query-statistics profile
	// that drives index construction.
	b.queryLog = append(b.queryLog, loggedQuery{
		at: b.api.Now(), lo: q.ValueLo, hi: q.ValueHi, ranged: true,
	})

	// Planning — target resolution, summary snapshots, estimates and
	// the plan decision — attributes to the planner phase.
	profPrev := b.cfg.Prof.Enter(prof.PhasePlanner)
	targets, covered := b.rangeTargets(q.ValueLo, q.ValueHi, q.TimeLo, q.TimeHi)
	snaps := b.summarySnapshots()
	est := query.EstimateFromSummaries(q, snaps)
	countEst := est
	if q.Op != query.OpCount {
		countQ := q
		countQ.Op = query.OpCount
		countEst = query.EstimateFromSummaries(countQ, snaps)
	}
	expTuples := float64(len(targets)) * 8 // fallback guess
	if countEst.Valid {
		expTuples = countEst.Value
	}
	dec := query.Choose(query.PlanInput{
		Op:                q.Op,
		N:                 b.api.N(),
		Targets:           len(targets),
		Covered:           covered,
		AvgDepth:          b.avgDepth(targets),
		ExpTuples:         expTuples,
		MaxTuplesPerReply: replyMaxReadings,
		Est:               est,
		ErrBudget:         q.ErrBudget,
		Force:             b.cfg.AggForcePlan,
		Trace:             b.cfg.Trace,
	})
	b.cfg.Prof.Exit(profPrev)

	pq := &pendingQuery{plan: dec.Plan, q: q, est: est}
	wq := workload.Query{
		ValueLo: q.ValueLo, ValueHi: q.ValueHi,
		TimeLo: q.TimeLo, TimeHi: q.TimeHi,
	}
	switch dec.Plan {
	case query.PlanSummary:
		// Answered on the spot from the retained summaries: nothing goes
		// on the air, and the reliability layer settles it complete.
		b.stats.PlanSummaryChosen++
		b.stats.SummaryAnswered++
		b.qidNext++
		pq.issued, pq.answered = b.api.Now(), true
		b.pending = dense.Grow(b.pending, int(b.qidNext))
		b.pending[b.qidNext] = pq
		b.stats.AggAnswered++
		b.relRegister(b.qidNext, pq, wq)

	case query.PlanTuple:
		b.stats.PlanTupleChosen++
		b.issueTuple(pq, wq, targets)

	case query.PlanAgg, query.PlanFlood:
		if dec.Plan == query.PlanAgg {
			b.stats.PlanAggChosen++
		} else {
			b.stats.PlanFloodChosen++
			if covered {
				// Forced flood over a covered window still asks everyone.
				targets = b.allNodes()
			}
		}
		// The base folds in its own store (owned plus washed-up
		// readings) at zero radio cost.
		pq.part = scanPartial(b.store, q.ValueLo, q.ValueHi, q.TimeLo, q.TimeHi)
		b.issue(pq, queryPacket(wq, q.Op, b.relOn()), wq, targets)
		if pq.expected == 0 {
			pq.answered = true
			b.stats.AggAnswered++
		}
	}
	return dec
}

// onAggReply folds one partial-aggregate message into its pending
// query at the basestation.
func (b *Base) onAggReply(m *AggReplyMsg) {
	prev := b.cfg.Prof.Enter(prof.PhaseAggCombine)
	b.aggReply(m)
	b.cfg.Prof.Exit(prev)
}

func (b *Base) aggReply(m *AggReplyMsg) {
	qid, pq := b.collecting(m.QueryID)
	if pq == nil {
		return
	}
	// The per-sender (query, seq) dedup stays keyed on the wire ID:
	// node flush sequence numbers are per wire query.
	if b.seenAggParts.Seen(m.Node, aggPartKey(m.QueryID, m.Seq)) {
		return
	}
	if !m.Nodes.Empty() {
		if pq.heard.Intersects(&m.Nodes) {
			// A retry re-scanned owners an earlier attempt already
			// folded in; merging would double count, so the whole
			// partial is dropped (conservative — a combined partial
			// mixing new and seen owners is discarded with them).
			return
		}
		pq.heard.Or(&m.Nodes)
	}
	pq.part.Merge(m.Part)
	pq.contribs += int(m.Contribs)
	b.stats.AggPartialsReceived++
	b.stats.AggContributors += int64(m.Contribs)
	if !pq.answered {
		pq.answered = true
		b.stats.AggAnswered++
		b.stats.AggFirstAnswerMS += int64(b.api.Now() - pq.issued)
		b.cfg.Trace.Emit(trace.Event{Kind: trace.QueryAnswered, Node: uint16(b.api.ID()),
			ID: qid, Value: int64(pq.contribs)})
	}
	b.settleIfComplete(qid, pq)
}

// aggregate returns the record of an issued aggregate query; nil for
// an unknown ID and for a plain tuple query.
func (b *Base) aggregate(qid uint16) *pendingQuery {
	if int(qid) >= len(b.pending) || b.pending[qid] == nil || !b.pending[qid].q.Op.Aggregate() {
		return nil
	}
	return b.pending[qid]
}

// AggAnswer evaluates the current answer of an issued aggregate
// query. ok is false while nothing has arrived (or the plan cannot
// answer the operator yet).
func (b *Base) AggAnswer(qid uint16) (float64, query.Plan, bool) {
	pq := b.aggregate(qid)
	if pq == nil {
		return 0, query.PlanAuto, false
	}
	if pq.verdict == VerdictDegraded {
		// Settled degraded: the answer is the widened summary estimate
		// (query.Degrade), not the partial result.
		return pq.est.Value, pq.plan, true
	}
	switch pq.plan {
	case query.PlanSummary:
		return pq.est.Value, pq.plan, true
	case query.PlanTuple:
		if pq.q.Op == query.OpCount {
			return float64(pq.total), pq.plan, true
		}
		if pq.q.Op == query.OpQuantile {
			// Quantiles cannot merge into partials; the tuple plan
			// computes them at the base over the (possibly truncated)
			// returned set.
			vals := make([]int, 0, len(pq.readings))
			for _, r := range pq.readings {
				vals = append(vals, r.Value)
			}
			if len(vals) == 0 {
				return 0, pq.plan, false
			}
			sort.Ints(vals)
			idx := int(pq.q.Quantile * float64(len(vals)))
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			return float64(vals[idx]), pq.plan, true
		}
		var p query.Partial
		for _, r := range pq.readings {
			p.Add(r.Value)
		}
		v, ok := p.Answer(pq.q.Op)
		return v, pq.plan, ok
	default:
		v, ok := pq.part.Answer(pq.q.Op)
		return v, pq.plan, ok
	}
}

// AggContribs reports how many nodes (plus the base's own scan, not
// counted) contributed partials to an aggregate answer, and how many
// nodes were targeted. Diagnostics/tests.
func (b *Base) AggContribs(qid uint16) (got, expected int) {
	if pq := b.aggregate(qid); pq != nil {
		return pq.contribs, pq.expected
	}
	return 0, 0
}

// summarySnapshots adapts the retained summary history to the
// estimator's view.
func (b *Base) summarySnapshots() []query.SummarySnapshot {
	out := make([]query.SummarySnapshot, 0, len(b.history))
	for _, s := range b.history {
		out = append(out, query.SummarySnapshot{
			Node: uint16(s.Node), SentAt: s.SentAt,
			Min: s.Min, Max: s.Max, Sum: s.Sum,
			Rate: s.Rate, Hist: s.Hist,
		})
	}
	return out
}

// avgDepth estimates the mean routing-tree depth of the target set
// from the hop counts summaries travelled (their frames' header Hops);
// nodes with no summary yet count at the fallback depth 2.
func (b *Base) avgDepth(targets []netsim.NodeID) float64 {
	if len(targets) == 0 {
		return 1
	}
	total := 0.0
	for _, id := range targets {
		if b.latest[id] != nil {
			total += float64(b.latestHops[id]) + 1
		} else {
			total += 2
		}
	}
	return total / float64(len(targets))
}
