package core

import (
	"scoop/internal/netsim"
	"scoop/internal/query"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// This file is the basestation's query reliability layer (DESIGN.md
// §19). When Config.QueryDeadline > 0 every issued tuple or aggregate
// query carries a reply deadline; owners still silent when it expires
// are re-asked under exponential backoff with a bitmap narrowed to
// exactly the silent set, and when the retry budget runs out the query
// settles to an explicit terminal verdict — falling back to the
// retained summaries (with a widened error bound) when they can still
// answer. With QueryDeadline == 0 none of this state exists and the
// query path is byte-for-byte the pre-§19 protocol.

// Verdict is the terminal state of one issued query. Every query
// reaches exactly one verdict (the invariant checker enforces it); the
// lattice orders answer quality Complete > Degraded > Partial >
// Failed.
type Verdict uint8

const (
	// VerdictOpen is the non-terminal zero value: replies are still
	// being collected (or the reliability layer is disabled and the
	// query never settles).
	VerdictOpen Verdict = iota
	// VerdictComplete: every targeted owner was heard.
	VerdictComplete
	// VerdictPartial: some owners stayed silent and no summary
	// estimate could bound the gap; the answer is the partial result.
	VerdictPartial
	// VerdictDegraded: owners stayed silent but the retained summaries
	// answer with an explicit error bound (query.Degrade).
	VerdictDegraded
	// VerdictFailed: nothing came back and no estimate exists.
	VerdictFailed
	numVerdicts
)

var verdictNames = [numVerdicts]string{
	VerdictOpen:     "open",
	VerdictComplete: "complete",
	VerdictPartial:  "partial",
	VerdictDegraded: "degraded",
	VerdictFailed:   "failed",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// ParseVerdict resolves a verdict name (CLI filters).
func ParseVerdict(s string) (Verdict, bool) {
	for v, name := range verdictNames {
		if name == s {
			return Verdict(v), true
		}
	}
	return VerdictOpen, false
}

// AllVerdicts lists the terminal verdicts in lattice order
// (reporting).
func AllVerdicts() []Verdict {
	return []Verdict{VerdictComplete, VerdictDegraded, VerdictPartial, VerdictFailed}
}

// VerdictRecord is one settled query in the basestation's durable
// verdict log: what the query reached, how many of its targeted
// owners were heard, and — for degraded answers — the served error
// bound next to the raw summary bound it widened (the invariant
// checker asserts ErrBound >= SummaryBound).
type VerdictRecord struct {
	QID          uint16
	Verdict      Verdict
	Got          int
	Expected     int
	ErrBound     float64
	SummaryBound float64
}

// openQuery is one entry of the basestation's durable query journal:
// enough to re-issue the query after a basestation restart wipes the
// in-RAM pending state. Settling marks it closed.
type openQuery struct {
	qid     uint16
	plan    query.Plan
	wq      workload.Query // what to ask: value and time ranges, or the node list
	aq      query.AggQuery // aggregate queries: the operator and its parameters
	attempt int
	closed  bool
}

// relOn reports whether the reliability layer is enabled.
func (b *Base) relOn() bool { return b.cfg.QueryDeadline > 0 }

// VerdictLog exposes the durable verdict records in settle order.
func (b *Base) VerdictLog() []VerdictRecord { return b.verdicts }

// QueryJournalLen reports how many queries the reliability layer has
// journalled — the number that must reach a terminal verdict.
func (b *Base) QueryJournalLen() int { return len(b.openLog) }

// onClock reports whether pq is on the deadline clock and not
// yet settled.
func (pq *pendingQuery) onClock() bool {
	return pq != nil && pq.deadline != 0 && pq.verdict == VerdictOpen
}

// relArm arms (or pulls forward) the shared deadline timer.
func (b *Base) relArm(at netsim.Time) {
	if b.relNextAt != 0 && b.relNextAt <= at {
		return
	}
	b.relNextAt = at
	b.api.SetTimer(timerRel, at-b.api.Now())
}

// relRegister attaches reliability state to a freshly issued query:
// journal it and start it.
func (b *Base) relRegister(qid uint16, pq *pendingQuery, wq workload.Query) {
	if !b.relOn() {
		return
	}
	pq.logIdx = len(b.openLog) + 1
	b.openLog = append(b.openLog, openQuery{qid: qid, plan: pq.plan, wq: wq, aq: pq.q})
	b.relStart(qid, pq)
}

// relStart settles a journalled query immediately when there is nobody
// to wait for (no targets: a summary-plan aggregate, an empty owner
// set), and otherwise starts its deadline clock.
func (b *Base) relStart(qid uint16, pq *pendingQuery) {
	if pq.expected == 0 {
		b.settle(qid, pq, true)
		return
	}
	pq.deadline = b.api.Now() + b.cfg.QueryDeadline
	b.relArm(pq.deadline)
}

// resolveWire maps a reply's wire query ID back to the original query
// it retries (identity for first-issue IDs).
func (b *Base) resolveWire(qid uint16) uint16 {
	if int(qid) < len(b.byWire) && b.byWire[qid].retryOf != 0 {
		return b.byWire[qid].retryOf
	}
	return qid
}

// relTimer fires at the earliest pending deadline: retry or settle
// every due query, then re-arm for the next one. The wire table is
// dense by query ID, so the walk order — and therefore the retry
// wire-ID assignment — is deterministic. A retry's wire ID grows the
// table past the walk's end: it holds no record to walk.
func (b *Base) relTimer() {
	now := b.api.Now()
	b.relNextAt = 0
	var next netsim.Time
	// Two passes, tuple collectors before partial collectors: retries
	// draw fresh wire IDs in walk order, and the committed
	// fault-campaign baseline and trace JSONL observe the IDs that
	// order hands out.
	for _, partials := range [2]bool{false, true} {
		for id := range b.byWire {
			pq := b.byWire[id].pq
			if !pq.onClock() || (pq.plan != query.PlanTuple) != partials {
				continue
			}
			if now >= pq.deadline {
				b.relDeadline(uint16(id), pq)
			}
			if pq.verdict == VerdictOpen && (next == 0 || pq.deadline < next) {
				next = pq.deadline
			}
		}
	}
	if next != 0 {
		b.relArm(next)
	}
}

// relDeadline handles one expired deadline: re-ask the silent owners
// if budget remains, otherwise settle. Retries ride fresh wire IDs:
// nodes answer each query ID exactly once, so re-asking under the
// original ID would be suppressed everywhere.
func (b *Base) relDeadline(qid uint16, pq *pendingQuery) {
	var silent Bitmap
	if pq.heard.Count() < pq.expected && pq.attempt < b.cfg.QueryRetryMax {
		silent = pq.msg.Bitmap.AndNot(&pq.heard)
	}
	if silent.Empty() {
		b.settle(qid, pq, true)
		return
	}
	pq.attempt++
	b.qidNext++
	m := carve(&b.packets)
	*m = *pq.msg
	m.ID, m.Bitmap = b.qidNext, silent
	b.wire(m.ID).retryOf = qid
	pq.wires = append(netsim.Grow(&b.net.wires, pq.wires, wiresMin), m.ID)
	b.gossip(m)
	b.stats.QueryRetries++
	b.cfg.Trace.Emit(trace.Event{Kind: trace.QueryRetry, Node: uint16(b.api.ID()),
		ID: qid, Value: int64(silent.Count()), Aux: int64(pq.attempt)})
	pq.deadline = b.api.Now() + b.cfg.QueryDeadline<<uint(pq.attempt)
	b.openLog[pq.logIdx-1].attempt = pq.attempt
}

// settleIfComplete settles a query on the deadline clock as soon as
// every targeted owner is heard, without waiting for the deadline.
func (b *Base) settleIfComplete(qid uint16, pq *pendingQuery) {
	if pq.deadline != 0 && pq.heard.Count() >= pq.expected {
		b.settle(qid, pq, true)
	}
}

// settle assigns a query its terminal verdict, journals it, and evicts
// its collection state: the heard bitmap, the issued packet, retry
// mappings and gossip entries go — the fix for the unbounded
// pending-state growth the pre-§19 base suffered under reply loss. What
// was collected stays (QueryResults and AggAnswer read it); a degraded
// verdict swaps an aggregate's answer to the widened summary estimate
// (AggAnswer serves est.Value with its error bound).
func (b *Base) settle(qid uint16, pq *pendingQuery, emit bool) {
	rec := VerdictRecord{QID: qid, Verdict: VerdictFailed, Got: pq.heard.Count(), Expected: pq.expected}
	switch {
	case rec.Got >= rec.Expected:
		rec.Verdict = VerdictComplete
		b.stats.QueryVerdictComplete++
	case pq.est.Valid:
		rec.Verdict = VerdictDegraded
		rec.SummaryBound = pq.est.ErrBound
		pq.est = query.Degrade(pq.est, float64(rec.Got)/float64(rec.Expected))
		rec.ErrBound = pq.est.ErrBound
		b.stats.QueryVerdictDegraded++
		b.stats.DegradedAnswers++
		// A degraded answer is an answer: a later partial is not the
		// first (AggFirstAnswerMS). A tuple-plan aggregate never
		// counts one.
		if pq.plan != query.PlanTuple {
			pq.answered = true
		}
	case rec.Got > 0 || pq.total > 0:
		rec.Verdict = VerdictPartial
		b.stats.QueryVerdictPartial++
	default:
		b.stats.QueryVerdictFailed++
	}
	pq.verdict = rec.Verdict
	if emit {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.QueryVerdict, Node: uint16(b.api.ID()),
			Flag: uint8(rec.Verdict), ID: qid, Value: int64(rec.Got), Aux: int64(rec.Expected)})
	}
	b.verdicts = append(b.verdicts, rec)
	b.openLog[pq.logIdx-1].closed = true
	b.relDropWire(qid)
	for _, w := range pq.wires {
		b.relDropWire(w)
	}
	b.net.wires.Put(pq.wires)
	b.net.seen.keys.Put(pq.heard.hi)
	pq.delivered.release(&b.net.seen) // collect reads it no more
	pq.wires, pq.msg, pq.heard = nil, nil, Bitmap{}
}

// wiresMin is the capacity a query's retry wire-ID list starts at.
const wiresMin = 4

// relDropWire evicts one wire query ID from the outbound table, query
// gossip and the retry mapping.
func (b *Base) relDropWire(w uint16) {
	if int(w) >= len(b.byWire) {
		return
	}
	e := &b.byWire[w]
	if e.out != nil {
		e.out = nil
		b.qGos.Remove(queryKey(w))
	}
	e.retryOf = 0
}

// FinalizeVerdicts settles every still-open query — the harness calls
// it once after the simulator stops, so queries issued too late for
// their deadline still reach a terminal verdict exactly once. It runs
// post-run and emits no trace events, so the trace ends with the last
// simulated event; counters and the verdict log are enough.
func (b *Base) FinalizeVerdicts() {
	for id, w := range b.byWire {
		if w.pq.onClock() {
			b.settle(uint16(id), w.pq, false)
		}
	}
}

// recoverOpenQueries rebuilds pending-query state from the durable
// journal after a basestation restart: every journalled query not yet
// settled is re-registered against the current owner set with a fresh
// deadline, and the ordinary deadline machinery re-asks its owners.
// Replies addressed to pre-restart retry wire IDs are dropped — the
// retry mapping was RAM. So was the operator and estimate of a
// tuple-plan aggregate, which comes back as the plain tuple query it
// put on the air.
func (b *Base) recoverOpenQueries() {
	for i := range b.openLog {
		e := &b.openLog[i]
		if e.closed {
			continue
		}
		pq := carve(&b.queries)
		*pq = pendingQuery{plan: e.plan, issued: b.api.Now(), attempt: e.attempt, logIdx: i + 1}
		msg := b.queryPacket(e.wq, query.OpSelect, false)
		if e.plan != query.PlanTuple {
			pq.q = e.aq
			pq.est = query.EstimateFromSummaries(e.aq, b.latestSummaries(e.aq.TimeLo, e.aq.TimeHi))
			msg.Op, msg.Track = e.aq.Op, true
		}
		msg.ID = e.qid
		targets := b.targets(e.wq)
		if e.plan == query.PlanFlood {
			targets = b.allNodes() // as IssueAgg asked: its stragglers still fold in
		}
		b.address(pq, msg, targets)
		b.wire(e.qid).pq = pq
		b.relStart(e.qid, pq)
	}
}
