// Package invariant is a test-only, whole-run correctness checker for
// Scoop simulations. It watches every reading's life through the
// storage pipeline (via core.ReadingProbe) and, at run end, asserts
// the system-level invariants that individual unit tests cannot see:
//
//   - Conservation of readings: every generated reading is stored at
//     least once, dropped with a loss-accounted reason (radio loss,
//     no-route, TTL, reboot), or demonstrably in flight at run end
//     (batch buffers, send queues, frames on the air). Nothing
//     vanishes silently.
//   - Stored-exactly-once accounting: the deduplicated StoredUnique
//     count equals the number of distinct readings with a storage
//     event, and no "ghost" reading is stored that was never produced.
//   - No aggregate double-count: for every issued in-network aggregate
//     query, the contributors folded into the basestation's answer
//     never exceed the targeted node set — seq-dedup'd resends must
//     not count a subtree twice.
//   - Index-generation monotonicity: the basestation's disseminated
//     index generations have strictly increasing IDs.
//
// The checker is wired into experiment runs by exp.ForceInvariants,
// which a test binary sets; it is
// plain bookkeeping on the trial goroutine and is never active in
// benchmark or sweep-artifact runs.
package invariant

import (
	"fmt"
	"sort"
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
}

// Checker accumulates per-reading and per-query evidence for one
// trial. Not safe for concurrent use; each trial owns one.
type Checker struct {
	readings map[readingKey]*readingState
	extra    []string // non-conservation violations, in detection order
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{readings: make(map[readingKey]*readingState)}
}

func (c *Checker) state(p uint16, t int64) *readingState {
	k := readingKey{p, t}
	s := c.readings[k]
	if s == nil {
		s = &readingState{}
		c.readings[k] = s
	}
	return s
}

// ProducedReading implements core.ReadingProbe.
func (c *Checker) ProducedReading(p uint16, t int64) {
	s := c.state(p, t)
	s.produced++
	if s.produced > 1 {
		c.extra = append(c.extra,
			fmt.Sprintf("reading (node %d, t=%d) produced %d times (sample identity collision)", p, t, s.produced))
	}
}

// StoredReading implements core.ReadingProbe. Called on every storage
// event including at-least-once duplicates.
func (c *Checker) StoredReading(p uint16, t int64) { c.state(p, t).stored++ }

// LostReading implements core.ReadingProbe.
func (c *Checker) LostReading(p uint16, t int64, reason string) { c.state(p, t).lost++ }

// InFlightReading marks a reading observed in a batch buffer, send
// queue or in-air frame at run end.
func (c *Checker) InFlightReading(p uint16, t int64) { c.state(p, t).inflight = true }

// RecordIndexIDs checks the basestation's disseminated generations for
// strictly increasing IDs.
func (c *Checker) RecordIndexIDs(ids []uint16) {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			c.extra = append(c.extra,
				fmt.Sprintf("index generation %d follows %d: IDs must increase strictly", ids[i], ids[i-1]))
		}
	}
}

// AggResult checks one aggregate query's answer assembly: contributors
// folded at the basestation must not exceed the targeted node count.
func (c *Checker) AggResult(qid uint16, contribs, expected int) {
	if contribs > expected {
		c.extra = append(c.extra,
			fmt.Sprintf("agg query %d: %d contributors folded for %d targeted nodes (double count)", qid, contribs, expected))
	}
}

// VerdictInfo is one query's terminal state as the reliability layer
// recorded it (adapted from core.VerdictRecord by the harness).
type VerdictInfo struct {
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
func (c *Checker) QueryVerdicts(issued int, recs []VerdictInfo) {
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
func (c *Checker) Violations() []string {
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
	conservation := 0
	for _, k := range keys {
		s := c.readings[k]
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
	if len(out) == 0 {
		return nil
	}
	return out
}

// Stats reports bookkeeping totals (tests of the checker itself).
func (c *Checker) Stats() (produced, stored, lost, inflight int) {
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
