// Package netsim is a deterministic, packet-level discrete-event
// simulator for multihop wireless sensor networks. It stands in for the
// TOSSIM simulator and the 62-node mote testbed used in the Scoop paper:
// it models lossy asymmetric links, CSMA-style random backoff, collisions,
// link-layer acknowledgements with retransmission, and overhearing
// (snooping), and it accounts every transmission by message class so
// experiments can reproduce the paper's message-count figures.
//
// The simulator is deterministic for a given seed, whether it runs
// serially (one event heap, one goroutine) or region-parallel
// (DESIGN.md §18): the topology is spatially partitioned into K
// regions, each with its own heap, clock and goroutine, advancing in
// conservative lookahead windows. Determinism across K rests on three
// K-independent conventions enforced here and in network.go:
//
//   - every event carries a canonical (time, origin, oseq) key, where
//     origin is the node whose state machine produced the event (-1
//     for control/harness events, which sort first at equal times) and
//     oseq is a per-origin schedule counter — heap order never depends
//     on which region popped what when;
//   - every random draw comes from the per-node substream of the node
//     whose protocol logic is drawing (Simulator.Rand is reserved for
//     the control plane), so draw order within a stream is fixed by
//     that node's own event order;
//   - radio visibility is windowed on a fixed time grid, so carrier
//     sense and interference depend only on transmissions begun before
//     the current grid point — state every region has seen at the last
//     barrier — never on same-window cross-region timing.
//
// The event loop is allocation-conscious (DESIGN.md §12): events live in
// a hand-rolled heap of plain structs (no interface boxing), and the
// network's hot paths schedule pooled Task objects instead of fresh
// closures.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"scoop/internal/prof"
)

// Time is virtual simulation time in milliseconds.
type Time int64

// Convenient duration units in virtual milliseconds.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds converts a floating-point second count to virtual Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// UnmarshalText reads a Go duration string ("15s", "22m") of whole,
// non-negative milliseconds — how hand-written input files (sweep grid
// files) spell virtual time. There is deliberately no MarshalText:
// encoded artifacts keep Time as a plain integer.
func (t *Time) UnmarshalText(text []byte) error {
	d, err := time.ParseDuration(string(text))
	if err != nil {
		return err
	}
	if d < 0 || d%time.Millisecond != 0 {
		return fmt.Errorf("netsim: duration %q is not a whole, non-negative number of milliseconds", text)
	}
	*t = Time(d.Milliseconds())
	return nil
}

// Task is a schedulable unit of work. Hot paths implement it on pooled
// structs so scheduling an event does not allocate a closure.
type Task interface{ Run() }

// ctlOrigin is the scheduling origin of control-plane events (the
// public At/After API: harness closures, dynamics, query ticks). It
// sorts before every node origin at equal times, matching the serial
// convention that control events scheduled for time t run before node
// events landing at t.
const ctlOrigin int32 = -1

// event is one heap element: 40 bytes, of which only task's two words
// are pointers the heap sifts move under the write barrier.
type event struct {
	at     Time
	origin int32      // canonical tie-break: producing node, or ctlOrigin
	phase  prof.Phase // wall-time attribution bucket for the event body
	oseq   uint64     // per-origin schedule sequence (second tie-break)
	task   Task
}

// funcTask is the body of an At/After closure. A func value is
// pointer-shaped, so storing one in a Task does not allocate.
type funcTask func()

func (f funcTask) Run() { f() }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.oseq < b.oseq
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not usable; use NewSimulator.
type Simulator struct {
	now    Time
	events []event // 4-ary min-heap ordered by (at, origin, oseq)
	seq    uint64  // control-plane oseq counter
	rng    *rand.Rand
	seed   int64
	halted bool
	prof   *prof.Profiler // nil: profiling off (the default)
}

// NewSimulator returns a simulator whose random stream is seeded with
// seed. Two simulators with the same seed and the same schedule of
// callbacks produce identical runs.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic control-plane random
// stream. Node protocol logic must not draw from it — NodeAPI exposes
// per-node substreams derived from Seed, so node draw order is
// independent of global event interleaving (the region-parallel
// determinism contract).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Seed returns the seed this simulator (and its derived per-node
// substreams) was built from.
func (s *Simulator) Seed() int64 { return s.seed }

// SetProfiler attaches a wall-clock attribution profiler to the event
// loop (nil detaches). Profiling observes wall time only — scheduling,
// dispatch order and all simulation behaviour are identical with it on
// or off. Set before Run.
func (s *Simulator) SetProfiler(p *prof.Profiler) { s.prof = p }

// Profiler returns the attached profiler (nil when profiling is off).
func (s *Simulator) Profiler() *prof.Profiler { return s.prof }

// The heap is 4-ary: at the scale tier's depth (≈8k 40-byte events) it
// has half the levels of a binary heap and a node's children are 160
// adjacent bytes. Both sifts move a hole and store the moving event
// once instead of swapping at every level. (at, origin, oseq) is a
// total order within a heap, so arity cannot change dispatch order.
const heapArity = 4

// push inserts e into the event heap (sift-up on a plain slice; no
// container/heap interface boxing on this per-event path).
func (s *Simulator) push(e event) {
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventLess(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.events = h
}

// pop removes and returns the earliest event. Callers check emptiness.
func (s *Simulator) pop() event {
	h := s.events
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h[last] = event{} // drop the task reference for the GC
	h = h[:last]
	s.events = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= last {
			break
		}
		end := first + heapArity
		if end > last {
			end = last
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if eventLess(&h[c], &h[smallest]) {
				smallest = c
			}
		}
		if !eventLess(&h[smallest], &e) {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = e
	return top
}

// scheduleOrigin enqueues a node-origin event carrying its canonical
// (origin, oseq) key. The caller owns oseq allocation: network.go hands
// out per-origin counters, and all scheduling for origin X happens in
// X's region, so the counters need no locking.
func (s *Simulator) scheduleOrigin(t Time, origin NodeID, oseq uint64, task Task, ph prof.Phase) {
	if t < s.now {
		t = s.now
	}
	s.push(event{at: t, origin: int32(origin), oseq: oseq, task: task, phase: ph})
}

// At schedules fn to run at absolute virtual time t, as a control-plane
// event. Events scheduled in the past run immediately at the current
// time (never before it). Externally scheduled closures attribute to
// the harness phase; the phase is carried unconditionally (one store)
// so attaching a profiler never changes the heap's contents.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.push(event{at: t, origin: ctlOrigin, oseq: s.seq, task: funcTask(fn), phase: prof.PhaseHarness})
}

// After schedules fn to run d milliseconds from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// dispatch pops the earliest event, moves the clock to it and runs its
// body: the one pop-and-run site every loop below shares, each with its
// own admission test. stamp, when non-nil, receives the event's
// canonical key before the body runs (region loops position their
// trace recorder with it). Under a profiler the pop records the heap
// depth (popped event included), and the body accrues to the event's
// phase until EndEvent returns attribution to the heap phase. The
// profiler's methods are nil-safe; the check here only spares the
// unprofiled loop two calls per event.
func (s *Simulator) dispatch(stamp func(origin int32, oseq uint64)) {
	e := s.pop()
	s.now = e.at
	if stamp != nil {
		stamp(e.origin, e.oseq)
	}
	p := s.prof
	if p == nil {
		e.task.Run()
		return
	}
	p.BeginEvent(e.phase, len(s.events)+1)
	e.task.Run()
	p.EndEvent()
}

// runnable reports whether an event is pending and Halt was not called.
func (s *Simulator) runnable() bool { return len(s.events) > 0 && !s.halted }

// Run processes events in time order until the clock reaches `until`
// or the queue drains. Events scheduled exactly at `until` still run.
// If an event calls Halt, the loop stops with the clock at that event's
// time: later same-tick events never ran, so the clock must not claim
// the run reached `until`.
func (s *Simulator) Run(until Time) {
	s.prof.LoopBegin()
	for s.runnable() && s.events[0].at <= until {
		s.dispatch(nil)
	}
	s.prof.LoopEnd()
	if !s.halted && s.now < until {
		s.now = until
	}
}

// runWindow processes events strictly before end — the conservative
// lookahead window the parallel coordinator granted this region. The
// clock is left at the last executed event; the coordinator advances it
// to the barrier time after cross-region exchange. stamp positions the
// region's buffering recorder at each event (see dispatch), so merged
// parallel traces reproduce the serial emission order.
func (s *Simulator) runWindow(end Time, stamp func(origin int32, oseq uint64)) {
	s.prof.LoopBegin()
	for s.runnable() && s.events[0].at < end {
		s.dispatch(stamp)
	}
	s.prof.LoopEnd()
}

// Step runs the single earliest pending event, returning false if the
// queue is empty. Mainly useful in tests.
func (s *Simulator) Step() bool {
	if !s.runnable() {
		return false
	}
	s.prof.LoopBegin()
	s.dispatch(nil)
	s.prof.LoopEnd()
	return true
}

// Halt stops the event loop after the current event returns.
func (s *Simulator) Halt() { s.halted = true }

// Halted reports whether Halt was called.
func (s *Simulator) Halted() bool { return s.halted }

// Pending reports the number of queued events.
func (s *Simulator) Pending() int { return len(s.events) }

// nextAt returns the earliest pending event time, or (0, false) when
// the queue is empty. Coordinator use.
func (s *Simulator) nextAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// substreamSeed derives the per-node RNG substream seed for node id
// from a simulator seed, via one splitmix64 round: statistically
// independent streams, stable across K and GOMAXPROCS.
func substreamSeed(seed int64, id NodeID) int64 {
	z := uint64(seed) + (uint64(id)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
