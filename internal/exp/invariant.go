package exp

import (
	"fmt"
	"slices"
	"sort"

	"scoop/internal/trace"
)

type readingKey struct {
	Producer uint16
	T        int64
}

type readingState struct {
	produced int
	stored   int
	lost     int
	inflight bool
	at       []storeSite // where it is stored, one entry a node and boot
	twice    bool        // stored again at a node holding it
	twiceAt  uint16      // the first such node
}

// storeSite is a node that stored a reading, in the boot it stored it
// in: a reboot erases a mote's Flash and the basestation's store.
type storeSite struct {
	node uint16
	boot uint32
}

// checker is the whole-run correctness checker for Scoop simulations.
// It reads every reading's life off the flight recorder — the
// reading-sampled, reading-stored and reading-lost events — and, at run
// end, asserts the system-level invariants that individual unit tests
// cannot see:
//
//   - Conservation of readings: every generated reading is stored at
//     least once, dropped with a loss-accounted cause (radio loss,
//     no-route, TTL, reboot, a receiver killed mid-air), or
//     demonstrably in flight at run end (batch buffers, send queues,
//     frames on the air). Nothing vanishes silently.
//   - Stored at most once per node: a node stores a reading it holds
//     no second time — data dedup drops every later copy (DESIGN.md
//     §7). A reboot erases the node's store, so the boot after it may
//     store the reading again.
//   - No "ghost" reading is stored that was never produced.
//   - No aggregate double-count: for every issued in-network aggregate
//     query, the contributors folded into the basestation's answer
//     never exceed the targeted node set — seq-dedup'd resends must
//     not count a subtree twice.
//   - Index-generation monotonicity: the basestation's disseminated
//     index generations have strictly increasing IDs.
//
// ForceInvariants makes it one more sink of every trial's recorder; it
// is plain bookkeeping on the trial's event loop and is never active in
// benchmark timings or sweep-artifact runs. It accumulates per-reading
// and per-query evidence for one trial. Not safe for concurrent use;
// each trial owns one.
type checker struct {
	readings map[readingKey]*readingState
	boots    map[uint16]uint32 // reboots seen, by node
	extra    []string          // non-conservation violations, in detection order
}

func newChecker() *checker {
	return &checker{readings: make(map[readingKey]*readingState), boots: make(map[uint16]uint32)}
}

func (c *checker) state(p uint16, t int64) *readingState {
	k := readingKey{p, t}
	s := c.readings[k]
	if s == nil {
		s = &readingState{}
		c.readings[k] = s
	}
	return s
}

// Record implements trace.Sink: it folds the block's reading-sampled,
// reading-stored, reading-lost and node-restart events, and skips the
// rest.
func (c *checker) Record(b *trace.Block) { b.Each(c.fold) }

func (c *checker) fold(e trace.Event) {
	switch e.Kind {
	case trace.ReadingSampled:
		s := c.state(e.Producer, e.SampleT)
		s.produced++
		if s.produced > 1 {
			c.extra = append(c.extra,
				fmt.Sprintf("reading (node %d, t=%d) produced %d times (sample identity collision)", e.Producer, e.SampleT, s.produced))
		}
	case trace.ReadingStored:
		s := c.state(e.Producer, e.SampleT)
		s.stored++
		site := storeSite{e.Node, c.boots[e.Node]}
		if slices.Contains(s.at, site) {
			if !s.twice {
				s.twice, s.twiceAt = true, e.Node
			}
		} else {
			s.at = append(s.at, site)
		}
	case trace.ReadingLost:
		c.state(e.Producer, e.SampleT).lost++
	case trace.NodeRestart:
		c.boots[e.Node]++
	}
}

// Close implements trace.Sink; the verdict waits for the end-of-run
// inputs (Violations).
func (c *checker) Close() error { return nil }

// InFlightReading marks a reading observed in a batch buffer, send
// queue or in-air frame at run end.
func (c *checker) InFlightReading(p uint16, t int64) { c.state(p, t).inflight = true }

// RecordIndexIDs checks the basestation's disseminated generations for
// strictly increasing IDs.
func (c *checker) RecordIndexIDs(ids []uint16) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			c.extra = append(c.extra,
				fmt.Sprintf("index generation %d follows %d: IDs must increase strictly", ids[i], ids[i-1]))
		}
	}
}

// AggResult checks one aggregate query's answer assembly: contributors
// folded at the basestation must not exceed the targeted node count.
func (c *checker) AggResult(qid uint16, contribs, expected int) {
	if contribs > expected {
		c.extra = append(c.extra,
			fmt.Sprintf("agg query %d: %d contributors folded for %d targeted nodes (double count)", qid, contribs, expected))
	}
}

// verdictInfo is one query's terminal state as the reliability layer
// recorded it (adapted from core.VerdictRecord by the trial).
type verdictInfo struct {
	QID          uint16
	Terminal     bool    // reached a terminal verdict
	Degraded     bool    // settled degraded (summary-estimate answer)
	ErrBound     float64 // reported bound of the served degraded answer
	SummaryBound float64 // raw summary bound before degradation widening
}

// QueryVerdicts checks the reliability layer's two contracts
// (DESIGN.md §19): every issued query reaches a terminal verdict
// exactly once, and a degraded answer never reports a tighter error
// bound than the summary math allows.
func (c *checker) QueryVerdicts(issued int, recs []verdictInfo) {
	seen := make(map[uint16]int, len(recs))
	for _, r := range recs {
		seen[r.QID]++
		if !r.Terminal {
			c.extra = append(c.extra,
				fmt.Sprintf("query %d: settled with non-terminal verdict", r.QID))
		}
		if seen[r.QID] == 2 {
			c.extra = append(c.extra,
				fmt.Sprintf("query %d: settled more than once", r.QID))
		}
		if r.Degraded && r.ErrBound < r.SummaryBound {
			c.extra = append(c.extra, fmt.Sprintf(
				"query %d: degraded answer reports bound %.4f tighter than the summary bound %.4f",
				r.QID, r.ErrBound, r.SummaryBound))
		}
	}
	if len(seen) != issued {
		c.extra = append(c.extra, fmt.Sprintf(
			"%d queries issued but %d reached a verdict: every query must settle exactly once",
			issued, len(seen)))
	}
}

// maxReported bounds the violation list so a systemic failure reads as
// a handful of examples plus a count, not megabytes of log.
const maxReported = 12

// Violations returns every invariant breach found, deterministically
// ordered, or nil. Call once, after the run (and after the in-flight
// sweep).
func (c *checker) Violations() []string {
	out := append([]string(nil), c.extra...)

	keys := make([]readingKey, 0, len(c.readings))
	for k := range c.readings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Producer != keys[j].Producer {
			return keys[i].Producer < keys[j].Producer
		}
		return keys[i].T < keys[j].T
	})
	conservation, twice := 0, 0
	for _, k := range keys {
		s := c.readings[k]
		if s.twice {
			twice++
			if twice <= maxReported {
				out = append(out, fmt.Sprintf(
					"reading (node %d, t=%d) stored twice at node %d", k.Producer, k.T, s.twiceAt))
			}
		}
		switch {
		case s.produced == 0 && s.stored > 0:
			out = append(out, fmt.Sprintf(
				"ghost reading (node %d, t=%d): stored %d times but never produced", k.Producer, k.T, s.stored))
		case s.produced > 0 && s.stored == 0 && s.lost == 0 && !s.inflight:
			conservation++
			if conservation <= maxReported {
				out = append(out, fmt.Sprintf(
					"reading (node %d, t=%d) vanished: not stored, not loss-accounted, not in flight", k.Producer, k.T))
			}
		}
	}
	if conservation > maxReported {
		out = append(out, fmt.Sprintf("… and %d more vanished readings", conservation-maxReported))
	}
	if twice > maxReported {
		out = append(out, fmt.Sprintf("… and %d more readings stored twice at one node", twice-maxReported))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
