// Package netsim is a deterministic, packet-level discrete-event
// simulator for multihop wireless sensor networks. It stands in for the
// TOSSIM simulator and the 62-node mote testbed used in the Scoop paper:
// it models lossy asymmetric links, CSMA-style random backoff, collisions,
// link-layer acknowledgements with retransmission, and overhearing
// (snooping), and it accounts every transmission by message class so
// experiments can reproduce the paper's message-count figures.
//
// The simulator is deterministic for a given seed: one event queue,
// run by one goroutine. Three conventions, enforced here and in
// network.go, fix a run's order and its radio outcomes (DESIGN.md §2):
//
//   - every event carries a canonical (time, origin, oseq) key, where
//     origin is the node whose state machine produced the event (-1
//     for control/harness events, which sort first at equal times) and
//     oseq is a per-origin schedule counter — queue order never depends
//     on how the queue stores its events;
//   - every random draw comes from the per-node substream of the node
//     whose protocol logic is drawing, so draw order within a stream is
//     fixed by that node's own event order;
//   - radio visibility is windowed on a fixed time grid, so carrier
//     sense and interference depend only on transmissions begun before
//     the current grid point, never on which of two frames begun
//     between grid points was scheduled first.
//
// The event loop is allocation-conscious (DESIGN.md §12): events are
// plain structs (no interface boxing) in a two-tier queue — a 256 ms
// wheel of buckets for the MAC steps and frame deliveries that are most
// of all events, a hand-rolled 4-ary heap for the protocol's timers
// behind it — and the network's hot paths schedule pooled Task objects
// instead of fresh closures.
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
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

// MarshalText writes t as the Go duration string UnmarshalText reads,
// whole minutes without the trailing "0s" ("15s", "2m"), so a Time in
// a written artifact (a sweep cell's interval) reads back.
func (t Time) MarshalText() ([]byte, error) {
	s := (time.Duration(t) * time.Millisecond).String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	return []byte(s), nil
}

// UnmarshalText reads a Go duration string ("15s", "22m") of whole,
// non-negative milliseconds — how hand-written input files (sweep grid
// files) spell virtual time.
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
// sorts before every node origin at equal times: control events
// scheduled for time t run before node events landing at t.
const ctlOrigin int32 = -1

// event is one queue element: 40 bytes, of which only task's two words
// are pointers a move stores under the write barrier.
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
//
// The queue has two tiers behind one push/pop (DESIGN.md §12). An event
// due less than wheelSpan ms from now sits in the wheel: slot at mod
// wheelSpan, an unordered bucket. Everything later sits in the 4-ary
// heap and stays there until it is popped. pop returns the
// eventLess-smaller of the two fronts, so the tiers cannot change
// dispatch order. Two invariants carry the wheel, and every loop that
// moves the clock (Run and Step) keeps them:
//
//   - now ≤ at for every pending event (push clamps; the clock only
//     moves to a popped event's time, or forward over a stretch with no
//     pending event), so a wheel event is always due in
//     [now, now+wheelSpan);
//   - hence a slot holds events of one at only, and walking the slots
//     circularly from now mod wheelSpan visits them in time order.
type Simulator struct {
	now    Time
	events []event                // far tier: 4-ary min-heap ordered by (at, origin, oseq)
	nodes  []wheelNode            // near tier: every bucket's storage, one array
	free   int32                  // head of the list of unused nodes, -1 none
	near   int                    // events in the wheel
	occ    [wheelSpan / 64]uint64 // bit i set: slot i is non-empty
	seq    uint64                 // control-plane oseq counter
	seed   int64                  // what the nodes' substreams derive from
	prof   *prof.Profiler         // nil: profiling off (the default)
	heads  [wheelSpan]int32       // slot i's bucket: a list through nodes, -1 empty
}

// The wheel spans 256 virtual ms: MAC backoffs, carrier-sense deferrals,
// retry delays and frame airtimes — most of all events at every scale —
// are scheduled 5–250 ms ahead, while the protocol's timers (seconds to
// minutes) are what fills the heap.
const wheelSpan = 256

// wheelNode is one wheel event and the link to the next of its bucket.
// Buckets are lists through one shared array rather than a slice per
// slot: the array is as large as the most near events ever pending at
// once (some 500 at N = 1000, 24 KB, and reused most-recently-freed
// first), it grows by append like the heap beside it, and once it has
// the steady state allocates nothing.
type wheelNode struct {
	e    event
	next int32
}

// NewSimulator returns a simulator whose nodes' random streams derive
// from seed. Two simulators with the same seed and the same schedule of
// callbacks produce identical runs.
func NewSimulator(seed int64) *Simulator {
	s := &Simulator{seed: seed, free: -1}
	for i := range s.heads {
		s.heads[i] = -1
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetProfiler attaches a wall-clock attribution profiler to the event
// loop (nil detaches). Profiling observes wall time only — scheduling,
// dispatch order and all simulation behaviour are identical with it on
// or off. Set before Run.
func (s *Simulator) SetProfiler(p *prof.Profiler) { s.prof = p }

// The heap is 4-ary: at the scale tier's depth (≈6k 40-byte events
// once the wheel holds the near ones) it has half the levels of a
// binary heap and a node's children are 160 adjacent bytes. Both sifts
// move a hole and store the moving event once instead of swapping at
// every level. (at, origin, oseq) is a total order over all pending
// events, so neither arity nor tiering can change dispatch order.
const heapArity = 4

// push queues e, whose at the caller has clamped to now or later: into
// its wheel slot when it is due within the span, into the heap
// otherwise (sift-up on a plain slice; no container/heap interface
// boxing on this per-event path).
func (s *Simulator) push(e event) {
	if e.at-s.now < wheelSpan {
		i := int(e.at) & (wheelSpan - 1)
		n := wheelNode{e: e, next: s.heads[i]}
		k := s.free
		if k >= 0 {
			s.free = s.nodes[k].next
			s.nodes[k] = n
		} else {
			k = int32(len(s.nodes))
			s.nodes = append(s.nodes, n)
		}
		s.heads[i] = k
		s.occ[i>>6] |= 1 << (i & 63)
		s.near++
		return
	}
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

// nearSlot returns the wheel's earliest occupied slot: the first set
// bit of occ at or circularly after now mod wheelSpan. Callers check
// near > 0.
func (s *Simulator) nearSlot() int {
	start := int(s.now) & (wheelSpan - 1)
	w, b := start>>6, uint(start&63)
	if m := s.occ[w] >> b; m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	for k := 1; k < len(s.occ); k++ {
		ww := (w + k) % len(s.occ)
		if m := s.occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	// Wrapped all the way: the bits of the starting word below now.
	return w<<6 + bits.TrailingZeros64(s.occ[w])
}

// pop removes and returns the earliest event if it is due at or before
// limit. The earliest is the wheel's front — the minimum (origin, oseq)
// of its earliest slot, scanned out — or the heap's root, whichever is
// eventLess; the times alone decide unless they tie.
func (s *Simulator) pop(limit Time) (event, bool) {
	h := s.events
	if s.near > 0 {
		si := s.nearSlot()
		nodes := s.nodes
		first := s.heads[si]
		if at := nodes[first].e.at; len(h) == 0 || at <= h[0].at {
			// k is the bucket's minimum, prev the node linking to it.
			k, prev := first, int32(-1)
			for p, j := first, nodes[first].next; j >= 0; p, j = j, nodes[j].next {
				if eventLess(&nodes[j].e, &nodes[k].e) {
					k, prev = j, p
				}
			}
			if len(h) == 0 || at < h[0].at || eventLess(&nodes[k].e, &h[0]) {
				if at > limit {
					return event{}, false
				}
				e := nodes[k].e
				if prev < 0 {
					s.heads[si] = nodes[k].next
					if s.heads[si] < 0 {
						s.occ[si>>6] &^= 1 << (si & 63)
					}
				} else {
					nodes[prev].next = nodes[k].next
				}
				nodes[k] = wheelNode{next: s.free} // drops the task reference for the GC
				s.free = k
				s.near--
				return e, true
			}
		}
	}
	if len(h) == 0 || h[0].at > limit {
		return event{}, false
	}
	return s.popHeap(), true
}

// popHeap removes and returns the heap's root.
func (s *Simulator) popHeap() event {
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
// out per-origin counters.
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

// dispatch pops the earliest event if it is due at or before limit,
// moves the clock to it and runs its body, and reports whether it did:
// the one pop-and-run site Run and Step share, each with its own
// limit. Under a profiler the pop records the queue depth (both tiers,
// popped event included), and the body accrues to the event's phase
// until EndEvent returns attribution to the heap phase. The profiler's
// methods are nil-safe; the check here only spares the unprofiled loop
// two calls per event.
func (s *Simulator) dispatch(limit Time) bool {
	e, ok := s.pop(limit)
	if !ok {
		return false
	}
	s.now = e.at
	p := s.prof
	if p == nil {
		e.task.Run()
		return true
	}
	p.BeginEvent(e.phase, s.Pending()+1)
	e.task.Run()
	p.EndEvent()
	return true
}

// maxTime is the limit of a loop that has none.
const maxTime = Time(1<<63 - 1)

// Run processes events in time order until the clock reaches `until`
// or the queue drains; the clock ends at `until`. Events scheduled
// exactly at `until` still run.
func (s *Simulator) Run(until Time) {
	s.prof.LoopBegin()
	for s.dispatch(until) {
	}
	s.prof.LoopEnd()
	if s.now < until {
		s.now = until
	}
}

// Step runs the single earliest pending event, returning false if the
// queue is empty. Mainly useful in tests.
func (s *Simulator) Step() bool {
	s.prof.LoopBegin()
	ran := s.dispatch(maxTime)
	s.prof.LoopEnd()
	return ran
}

// Pending reports the number of queued events, both tiers.
func (s *Simulator) Pending() int { return len(s.events) + s.near }

// NodeStream seeds p as node id's substream of seed — one splitmix64
// round over (seed, id), then the id: statistically independent streams,
// stable across GOMAXPROCS and attach order — and returns the Rand
// over it. NodeAPI's and a workload source's streams are made here.
func NodeStream(p *rand.PCG, seed int64, id NodeID) rand.Rand {
	z := uint64(seed) + (uint64(id)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	p.Seed(z^(z>>31), uint64(id))
	return *rand.New(p)
}
