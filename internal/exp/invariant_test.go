package exp

import (
	"strings"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// reading is one reading-lifecycle event of kind k, as core emits it.
func reading(k trace.Kind, producer uint16, t int64) trace.Event {
	return trace.Event{Kind: k, Node: producer, Producer: producer, SampleT: t}
}

// replay hands evs to c through a recorder whose clock reads each
// event's own time, the path a trial's events take to its checker.
func replay(c *checker, evs ...trace.Event) {
	var now int64
	rec := trace.New(func() int64 { return now }, c)
	for _, e := range evs {
		now = e.T
		rec.Emit(e)
	}
	_ = rec.Close() // the checker's Close reports nothing
}

// clean drives every check with a sequence that satisfies it: readings
// stored (once a node and boot), lost or in flight; increasing index
// IDs; an aggregate that counts each target once; every query settled
// once with an honest bound. Each violating case below runs it first,
// so the one breach it adds is the only difference from a clean run.
func clean(c *checker) {
	lost := reading(trace.ReadingLost, 2, 100)
	lost.Cause = metrics.DropRetries
	atBase := reading(trace.ReadingStored, 1, 100)
	atBase.Node = 0
	replay(c,
		reading(trace.ReadingSampled, 1, 100),
		reading(trace.ReadingStored, 1, 100),
		atBase, // a copy stored at a second node
		trace.Event{Kind: trace.NodeRestart, Node: 0},
		atBase, // and again after that node's reboot erased its store
		reading(trace.ReadingSampled, 2, 100),
		lost,
		reading(trace.ReadingSampled, 3, 100),
		trace.Event{Kind: trace.PacketSend, Node: 3, Peer: 1}, // not a reading event
	)
	c.InFlightReading(3, 100)
	c.RecordIndexIDs([]uint16{1, 2, 5})
	c.AggResult(7, 4, 4)
	c.QueryVerdicts(2, []verdictInfo{
		{QID: 1, Terminal: true},
		{QID: 2, Terminal: true, Degraded: true, ErrBound: 0.2, SummaryBound: 0.1},
	})
}

func TestCleanRunHasNoViolations(t *testing.T) {
	c := newChecker()
	clean(c)
	if vs := c.Violations(); vs != nil {
		t.Fatalf("clean run reported %q", vs)
	}
	if p, s, l, f := checkerStats(c); p != 3 || s != 1 || l != 1 || f != 1 {
		t.Fatalf("stats = %d produced, %d stored, %d lost, %d in flight", p, s, l, f)
	}
}

// Each sequence breaks one invariant and must be reported as exactly
// one violation: the checker can fail, and no check shadows another.
func TestEachCheckTripsAlone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		breach func(c *checker)
		want   string
	}{
		{"vanished reading", func(c *checker) {
			replay(c, reading(trace.ReadingSampled, 4, 200))
		}, "reading (node 4, t=200) vanished"},
		{"ghost reading", func(c *checker) {
			replay(c, reading(trace.ReadingStored, 5, 200))
		}, "ghost reading (node 5, t=200)"},
		{"reading produced twice", func(c *checker) {
			replay(c, reading(trace.ReadingSampled, 1, 100))
		}, "produced 2 times"},
		{"reading stored twice at one node", func(c *checker) {
			replay(c, reading(trace.ReadingStored, 1, 100))
		}, "reading (node 1, t=100) stored twice at node 1"},
		{"agg double count", func(c *checker) {
			c.AggResult(8, 5, 4)
		}, "agg query 8: 5 contributors folded for 4 targeted nodes"},
		{"index ID repeats", func(c *checker) {
			c.RecordIndexIDs([]uint16{3, 3})
		}, "index generation 3 follows 3"},
		{"index ID goes back", func(c *checker) {
			c.RecordIndexIDs([]uint16{1, 4, 2})
		}, "index generation 2 follows 4"},
		{"query settled twice", func(c *checker) {
			c.QueryVerdicts(1, []verdictInfo{{QID: 9, Terminal: true}, {QID: 9, Terminal: true}})
		}, "query 9: settled more than once"},
		{"query never settled", func(c *checker) {
			c.QueryVerdicts(2, []verdictInfo{{QID: 9, Terminal: true}})
		}, "2 queries issued but 1 reached a verdict"},
		{"non-terminal verdict", func(c *checker) {
			c.QueryVerdicts(1, []verdictInfo{{QID: 9}})
		}, "query 9: settled with non-terminal verdict"},
		{"degraded bound too tight", func(c *checker) {
			c.QueryVerdicts(1, []verdictInfo{
				{QID: 9, Terminal: true, Degraded: true, ErrBound: 0.05, SummaryBound: 0.1}})
		}, "query 9: degraded answer reports bound 0.0500 tighter than the summary bound 0.1000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newChecker()
			clean(c)
			tc.breach(c)
			vs := c.Violations()
			if len(vs) != 1 || !strings.Contains(vs[0], tc.want) {
				t.Fatalf("violations = %q, want exactly one containing %q", vs, tc.want)
			}
		})
	}
}

// A systemic conservation failure is reported as maxReported examples
// plus a count.
func TestVanishedReadingsAreCapped(t *testing.T) {
	c := newChecker()
	var evs []trace.Event
	for i := 0; i < maxReported+3; i++ {
		evs = append(evs, reading(trace.ReadingSampled, uint16(i), 1))
	}
	replay(c, evs...)
	vs := c.Violations()
	if len(vs) != maxReported+1 || !strings.Contains(vs[maxReported], "and 3 more vanished readings") {
		t.Fatalf("violations = %q", vs)
	}
}

// checkerStats reports the checker's bookkeeping totals.
func checkerStats(c *checker) (produced, stored, lost, inflight int) {
	for _, s := range c.readings {
		if s.produced > 0 {
			produced++
		}
		if s.stored > 0 {
			stored++
		}
		if s.lost > 0 {
			lost++
		}
		if s.inflight {
			inflight++
		}
	}
	return
}
