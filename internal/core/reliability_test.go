package core

import (
	"reflect"
	"slices"
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/query"
	"scoop/internal/workload"
)

func TestVerdictStringsRoundTrip(t *testing.T) {
	for _, v := range AllVerdicts() {
		got, ok := ParseVerdict(v.String())
		if !ok || got != v {
			t.Fatalf("ParseVerdict(%q) = %v, %v; want %v", v.String(), got, ok, v)
		}
	}
	if _, ok := ParseVerdict("bogus"); ok {
		t.Fatal("ParseVerdict accepted a bogus name")
	}
}

func TestBitmapSetOps(t *testing.T) {
	var a, b Bitmap
	if !a.Empty() {
		t.Fatal("fresh bitmap not empty")
	}
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(200)
	if a.Empty() || !a.Intersects(&b) {
		t.Fatal("Intersects missed the shared node")
	}
	diff := a.AndNot(&b)
	if diff.Count() != 1 || !diff.Has(3) || diff.Has(70) {
		t.Fatalf("AndNot: %d nodes, want {3}", diff.Count())
	}
	a.Or(&b)
	if a.Count() != 3 || !a.Has(200) {
		t.Fatalf("Or: %d nodes, want {3,70,200}", a.Count())
	}
	var c Bitmap
	d := c.AndNot(&a)
	if c.Intersects(&a) || !d.Empty() {
		t.Fatal("empty-bitmap set ops misbehaved")
	}
}

// relConfig is testConfig plus an enabled reliability layer.
func relConfig() Config {
	cfg := testConfig()
	cfg.QueryDeadline = 10 * netsim.Second
	cfg.QueryRetryMax = 2
	return cfg
}

// wireOnClock reports whether w holds a query still on the deadline clock.
func wireOnClock(w wireQuery) bool { return w.pq.onClock() }

// queryShapes are the three ways a query collects its answer; the one
// §19 state machine must treat them alike.
var queryShapes = []struct {
	name  string
	agg   bool       // issued through IssueAgg
	force query.Plan // AggForcePlan
}{
	{name: "tuple query"},
	{name: "agg-plan aggregate", agg: true, force: query.PlanAgg},
	{name: "tuple-plan aggregate", agg: true, force: query.PlanTuple},
}

// TestPendingEvictsUnderTotalReplyLoss is the regression test for the
// unbounded pending-state growth the pre-§19 base suffered, over every
// query shape: queries whose replies never arrive retry, settle to
// exactly one terminal verdict when the budget runs out, and evict
// their collection state; replies straggling in afterwards — under the
// original ID or a retry wire ID — change nothing.
func TestPendingEvictsUnderTotalReplyLoss(t *testing.T) {
	for i, shape := range queryShapes {
		t.Run(shape.name, func(t *testing.T) {
			cfg := relConfig()
			cfg.AggForcePlan = shape.force
			tn := newTestNet(t, meshTopo(6, 0.9), cfg, nil, 11+int64(i))
			tn.sim.At(5*netsim.Minute, func() {
				tn.net.SetBlackout(1, 5, true) // total silence: nothing gets through
			})
			for i := 0; i < 3; i++ {
				at := 5*netsim.Minute + netsim.Time(i+1)*netsim.Second
				tn.sim.At(at, func() {
					if shape.agg {
						tn.base.IssueAgg(query.AggQuery{Op: query.OpCount, ValueLo: 0, ValueHi: 20,
							TimeLo: 2 * netsim.Minute, TimeHi: at})
					} else {
						tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: at})
					}
				})
			}
			tn.sim.Run(10 * netsim.Minute)
			if tn.stats.QueryRetries == 0 {
				t.Fatal("no retries under total loss: deadline machinery never fired")
			}
			settled := func(when string) {
				t.Helper()
				if n := tn.base.QueryJournalLen(); n != 3 {
					t.Fatalf("%s: journalled %d queries, want 3", when, n)
				}
				seen := map[uint16]bool{}
				for _, rec := range tn.base.VerdictLog() {
					if rec.Verdict == VerdictOpen || rec.Verdict == VerdictComplete || seen[rec.QID] {
						t.Fatalf("%s: verdict log %+v: want one incomplete terminal verdict per query", when, tn.base.VerdictLog())
					}
					seen[rec.QID] = true
				}
				terminal := tn.stats.QueryVerdictPartial + tn.stats.QueryVerdictDegraded + tn.stats.QueryVerdictFailed
				if len(seen) != 3 || terminal != 3 {
					t.Fatalf("%s: %d verdict records, counters sum to %d; want 3 and 3", when, len(seen), terminal)
				}
				if slices.ContainsFunc(tn.base.byWire, wireOnClock) {
					t.Fatalf("%s: a pending query still holds collection state", when)
				}
			}
			settled("after the retry budget")
			last := tn.base.LastQueryID() // the three queries plus their retry wires
			if int(last) != 3+int(tn.stats.QueryRetries) {
				t.Fatalf("last query ID %d, want 3 queries + %d retries", last, tn.stats.QueryRetries)
			}
			for id := uint16(1); id <= last; id++ {
				gossiped := slices.Contains(gossipKeys(&tn.base.qGos), queryKey(id))
				if w := tn.base.byWire[id]; w.out != nil || gossiped || w.retryOf != 0 {
					t.Fatalf("wire query %d survives settling: out=%v gossiped=%v retryOf=%d", id,
						w.out != nil, gossiped, w.retryOf)
				}
			}
			before := *tn.stats
			for _, wire := range []uint16{1, last} {
				tn.base.onReply(&ReplyMsg{QueryID: wire, Node: 1, Count: 1, Readings: oneReading(7, 1, netsim.Minute)})
				var nodes Bitmap
				nodes.Set(1)
				tn.base.aggReply(&AggReplyMsg{QueryID: wire, Node: 1, Contribs: 1,
					Part: query.Partial{Count: 1, Sum: 7, Min: 7, Max: 7}, Nodes: nodes})
			}
			settled("after late replies")
			if !reflect.DeepEqual(*tn.stats, before) {
				t.Fatalf("late replies moved counters:\n before %+v\n after  %+v", before, *tn.stats)
			}
		})
	}
}

// TestRetryWireOrderTuplesBeforePartials pins the order relTimer hands
// out retry wire IDs when queries of both kinds share a deadline: every
// due tuple collector first, then every due partial collector, each in
// ascending query ID. The committed fault-campaign baseline and trace
// JSONL carry the IDs this order produces.
func TestRetryWireOrderTuplesBeforePartials(t *testing.T) {
	cfg := relConfig()
	cfg.AggForcePlan = query.PlanAgg
	tn := newTestNet(t, meshTopo(6, 0.95), cfg, nil, 15)
	tn.sim.At(5*netsim.Minute-netsim.Second, func() { tn.net.SetBlackout(1, 5, true) })
	tn.sim.At(5*netsim.Minute, func() {
		tn.base.IssueAgg(query.AggQuery{Op: query.OpCount, ValueLo: 0, ValueHi: 20,
			TimeLo: 2 * netsim.Minute, TimeHi: 5 * netsim.Minute}) // query 1
		tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: 5 * netsim.Minute}) // query 2
	})
	tn.sim.Run(5*netsim.Minute + cfg.QueryDeadline + netsim.Second)
	if tn.stats.QueryRetries != 2 || tn.base.LastQueryID() != 4 {
		t.Fatalf("%d retries, last query ID %d; want both queries retried once (IDs 3 and 4)",
			tn.stats.QueryRetries, tn.base.LastQueryID())
	}
	if tn.base.byWire[3].retryOf != 2 || tn.base.byWire[4].retryOf != 1 {
		t.Fatalf("retry wire 3 -> query %d, wire 4 -> query %d; want the tuple query (2) retried before the lower-ID aggregate (1)",
			tn.base.byWire[3].retryOf, tn.base.byWire[4].retryOf)
	}
	if m := tn.base.byWire[4].out; m.Op != query.OpCount || !m.Track {
		t.Fatalf("aggregate retry packet %+v lost its operator or Track flag", m)
	}
}

// TestRetryRecoversAfterBlackout: a query issued into a blackout is
// lost, but once the blackout lifts the deadline retry re-asks the
// silent owners and the query completes.
func TestRetryRecoversAfterBlackout(t *testing.T) {
	tn := newTestNet(t, meshTopo(6, 0.95), relConfig(), nil, 12)
	tn.sim.At(5*netsim.Minute-10*netsim.Second, func() { tn.net.SetBlackout(1, 5, true) })
	tn.sim.At(5*netsim.Minute, func() {
		tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: 5 * netsim.Minute})
	})
	tn.sim.At(5*netsim.Minute+5*netsim.Second, func() { tn.net.SetBlackout(1, 5, false) })
	tn.sim.Run(10 * netsim.Minute)
	if tn.stats.QueryRetries == 0 {
		t.Fatal("no retry was issued")
	}
	if tn.stats.QueryVerdictComplete != 1 {
		t.Fatalf("verdicts: complete=%d partial=%d degraded=%d failed=%d; want 1 complete",
			tn.stats.QueryVerdictComplete, tn.stats.QueryVerdictPartial,
			tn.stats.QueryVerdictDegraded, tn.stats.QueryVerdictFailed)
	}
	if tn.stats.RepliesReceived != tn.stats.RepliesExpected {
		t.Fatalf("received %d of %d expected replies after retry",
			tn.stats.RepliesReceived, tn.stats.RepliesExpected)
	}
}

// TestDegradedAggAnswerFromSummaries: an in-network aggregate whose
// owners all go dark settles degraded — answered from the retained
// summaries with an error bound no tighter than the summary math.
func TestDegradedAggAnswerFromSummaries(t *testing.T) {
	cfg := relConfig()
	cfg.AggForcePlan = query.PlanAgg
	tn := newTestNet(t, meshTopo(6, 0.95), cfg, nil, 13)
	tn.sim.At(6*netsim.Minute, func() { tn.net.SetBlackout(1, 5, true) })
	var qid uint16
	tn.sim.At(6*netsim.Minute+netsim.Second, func() {
		tn.base.IssueAgg(query.AggQuery{
			Op: query.OpCount, ValueLo: 0, ValueHi: 20,
			TimeLo: 2 * netsim.Minute, TimeHi: 6 * netsim.Minute,
		})
		qid = tn.base.LastQueryID()
	})
	tn.sim.Run(10 * netsim.Minute)
	if tn.stats.QueryVerdictDegraded != 1 || tn.stats.DegradedAnswers != 1 {
		t.Fatalf("verdicts: complete=%d partial=%d degraded=%d failed=%d; want 1 degraded",
			tn.stats.QueryVerdictComplete, tn.stats.QueryVerdictPartial,
			tn.stats.QueryVerdictDegraded, tn.stats.QueryVerdictFailed)
	}
	if _, _, ok := tn.base.AggAnswer(qid); !ok {
		t.Fatal("degraded aggregate has no answer")
	}
	var rec *VerdictRecord
	for i := range tn.base.VerdictLog() {
		if tn.base.VerdictLog()[i].QID == qid {
			rec = &tn.base.VerdictLog()[i]
		}
	}
	if rec == nil || rec.Verdict != VerdictDegraded {
		t.Fatalf("no degraded verdict record for query %d", qid)
	}
	if rec.ErrBound < rec.SummaryBound {
		t.Fatalf("degraded bound %v tighter than summary bound %v", rec.ErrBound, rec.SummaryBound)
	}
	if slices.ContainsFunc(tn.base.byWire, wireOnClock) {
		t.Fatal("a pending aggregate is still open after settling")
	}
}

// TestBaseRestartRecoversOpenQueries: a basestation restart wipes the
// pending RAM, but the durable journal re-registers the open query and
// the deadline machinery re-asks its owners.
func TestBaseRestartRecoversOpenQueries(t *testing.T) {
	tn := newTestNet(t, meshTopo(6, 0.95), relConfig(), nil, 14)
	tn.sim.At(5*netsim.Minute-10*netsim.Second, func() { tn.net.SetBlackout(1, 5, true) })
	tn.sim.At(5*netsim.Minute, func() {
		tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: 5 * netsim.Minute})
	})
	tn.sim.At(5*netsim.Minute+2*netsim.Second, func() { tn.net.Restart(0) })
	tn.sim.At(5*netsim.Minute+5*netsim.Second, func() { tn.net.SetBlackout(1, 5, false) })
	tn.sim.Run(12 * netsim.Minute)
	if n := tn.base.QueryJournalLen(); n != 1 {
		t.Fatalf("journal holds %d queries, want the 1 issued pre-restart", n)
	}
	if got := len(tn.base.VerdictLog()); got != 1 {
		t.Fatalf("%d verdicts after restart recovery, want exactly 1", got)
	}
	rec := tn.base.VerdictLog()[0]
	if rec.Verdict == VerdictOpen || rec.Verdict == VerdictFailed {
		t.Fatalf("recovered query settled %v; want it re-asked and answered", rec.Verdict)
	}
	if slices.ContainsFunc(tn.base.byWire, wireOnClock) {
		t.Fatal("a pending query is open after recovery settled")
	}
}
