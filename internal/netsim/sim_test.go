package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %d, want 100", s.Now())
	}
}

func TestSimulatorTieBreakFIFO(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSimulatorPastEventRunsNow(t *testing.T) {
	s := NewSimulator(1)
	fired := Time(-1)
	s.At(50, func() {
		s.At(10, func() { fired = s.Now() }) // in the past
	})
	s.Run(100)
	if fired != 50 {
		t.Fatalf("past event fired at %d, want 50", fired)
	}
}

func TestSimulatorRunStopsAtBoundary(t *testing.T) {
	s := NewSimulator(1)
	var fired []Time
	s.At(10, func() { fired = append(fired, 10) })
	s.At(20, func() { fired = append(fired, 20) })
	s.At(30, func() { fired = append(fired, 30) })
	s.Run(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run(30)
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestSimulatorAfterNesting(t *testing.T) {
	s := NewSimulator(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			s.After(100, tick)
		}
	}
	s.After(100, tick)
	s.Run(10 * Second)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestSimulatorHalt(t *testing.T) {
	s := NewSimulator(1)
	var count int
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("ran %d events after halt, want 3", count)
	}
}

func TestSimulatorStep(t *testing.T) {
	s := NewSimulator(1)
	n := 0
	s.At(5, func() { n++ })
	s.At(6, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first step failed, n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second step failed, n=%d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewSimulator(seed)
		r := rand.New(rand.NewSource(seed))
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, r.Int63n(1000))
			if len(draws) < 20 {
				s.After(Time(r.Int63n(50)+1), tick)
			}
		}
		s.After(1, tick)
		s.Run(Minute)
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: events always run in non-decreasing time order, whatever
// the schedule.
func TestSimulatorMonotonicProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewSimulator(7)
		var times []Time
		for _, off := range offsets {
			at := Time(off)
			s.At(at, func() { times = append(times, s.Now()) })
		}
		s.Run(Time(1 << 17))
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if Seconds(0) != 0 {
		t.Fatalf("Seconds(0) = %d", Seconds(0))
	}
}

// queueRef is the reference model of the two-tier event queue: every
// pending event in one list kept sorted by eventLess, its front the
// first. Each scheduled event is a queueTask, so the harness sees the
// real dispatch order from inside the loops under test.
type queueRef struct {
	t         *testing.T
	s         *Simulator
	r         *rand.Rand
	pending   []event   // sorted by eventLess
	oseq      [8]uint64 // per-origin schedule counters, ctlOrigin first
	spawn     int       // schedule calls still to be made from inside events
	ran       int
	scheduled int
}

type queueTask struct {
	q      *queueRef
	at     Time
	origin int32
	oseq   uint64
}

// schedule queues one event d ms from now, in both queues.
func (q *queueRef) schedule(d Time, origin int32) {
	q.oseq[origin+1]++
	tk := &queueTask{q: q, at: q.s.now + d, origin: origin, oseq: q.oseq[origin+1]}
	e := event{at: tk.at, origin: origin, oseq: tk.oseq, task: tk}
	q.s.push(e)
	i, _ := slices.BinarySearchFunc(q.pending, e, func(a, b event) int {
		if eventLess(&a, &b) {
			return -1
		}
		return 1 // keys are unique: never equal
	})
	q.pending = slices.Insert(q.pending, i, e)
	q.scheduled++
}

// delay draws from the mix the wheel has to get right: its edges, the
// MAC range inside it, and the protocol timers beyond it.
func (q *queueRef) delay() Time {
	switch q.r.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSpan - 1
	case 3:
		return wheelSpan
	case 4:
		return wheelSpan + 1
	case 5, 6:
		return Time(1+q.r.Intn(90)) * Second
	default:
		return Time(5 + q.r.Intn(246))
	}
}

func (q *queueRef) scheduleRandom() {
	if q.r.Intn(12) == 0 {
		// One millisecond, many origins.
		d := q.delay()
		for i := 0; i < 19; i++ {
			q.schedule(d, int32(q.r.Intn(len(q.oseq)))-1)
		}
		return
	}
	q.schedule(q.delay(), int32(q.r.Intn(len(q.oseq)))-1)
}

// agree holds Pending and nextAt to the reference.
func (q *queueRef) agree(where string) {
	q.t.Helper()
	if got := q.s.Pending(); got != len(q.pending) {
		q.t.Fatalf("%s: Pending = %d, reference holds %d", where, got, len(q.pending))
	}
	at, ok := q.s.nextAt()
	if ok != (len(q.pending) > 0) {
		q.t.Fatalf("%s: nextAt ok = %v with %d pending", where, ok, len(q.pending))
	}
	if ok && at != q.pending[0].at {
		q.t.Fatalf("%s: nextAt = %d, reference front is at %d", where, at, q.pending[0].at)
	}
}

func (tk *queueTask) Run() {
	q := tk.q
	want := q.pending[0]
	if want.task != Task(tk) {
		q.t.Fatalf("event %d: ran (%d, %d, %d), reference front is (%d, %d, %d)",
			q.ran, tk.at, tk.origin, tk.oseq, want.at, want.origin, want.oseq)
	}
	if q.s.now != tk.at {
		q.t.Fatalf("event %d: clock %d, event due at %d", q.ran, q.s.now, tk.at)
	}
	q.pending = slices.Delete(q.pending, 0, 1)
	q.ran++
	for n := q.r.Intn(4); n > 0 && q.spawn > 0; n-- {
		q.spawn--
		q.scheduleRandom()
	}
	q.agree("inside an event")
}

// The two-tier queue against its reference, over random schedules and
// every loop that pops: dispatch order, Pending and nextAt must match
// at every step.
func TestEventHeapOrdering(t *testing.T) {
	// A lone wheel event is found from every clock position, the slots
	// behind now in its own bitmap word included.
	lone := NewSimulator(1)
	for now := Time(1000); now < 1000+wheelSpan; now++ {
		for d := Time(0); d < wheelSpan; d++ {
			lone.now = now
			ran := false
			lone.At(now+d, func() { ran = true })
			if at, ok := lone.nextAt(); !ok || at != now+d {
				t.Fatalf("now %d: nextAt = %d, %v with one event at %d", now, at, ok, now+d)
			}
			lone.Run(now + d)
			if !ran || lone.Pending() != 0 {
				t.Fatalf("now %d: event at %d ran = %v, %d pending", now, now+d, ran, lone.Pending())
			}
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		s := NewSimulator(seed)
		q := &queueRef{t: t, s: s, r: rand.New(rand.NewSource(seed)), spawn: 800}
		for i := 0; i < 40; i++ {
			q.scheduleRandom()
		}
		q.agree("after the initial schedule")
		for len(q.pending) > 0 {
			front := q.pending[0].at
			switch q.r.Intn(4) {
			case 0:
				if !s.Step() {
					t.Fatalf("seed %d: Step = false with %d pending", seed, len(q.pending))
				}
			case 1:
				// Stop between two slots (or short of the front) and
				// resume from there on the next round.
				until := s.now + Time(q.r.Intn(2*wheelSpan))
				s.Run(until)
				if s.now != until {
					t.Fatalf("seed %d: Run(%d) left the clock at %d", seed, until, s.now)
				}
				if len(q.pending) > 0 && q.pending[0].at <= until {
					t.Fatalf("seed %d: Run(%d) left an event at %d", seed, until, q.pending[0].at)
				}
			default:
				// A window ending exactly on a pending event (the front,
				// or whichever comes up a little later): it must not run.
				end := front
				if q.r.Intn(2) == 0 {
					end = q.pending[q.r.Intn(len(q.pending))].at
				}
				before := q.ran
				s.runWindow(end, nil)
				if len(q.pending) == 0 || q.pending[0].at < end {
					t.Fatalf("seed %d: runWindow(%d) left work before its end", seed, end)
				}
				if end == front && q.ran != before {
					t.Fatalf("seed %d: runWindow(%d) ran the event at its end", seed, end)
				}
				if s.now < end {
					s.now = end // what advanceRegions does at the barrier
				}
			}
			q.agree("between loops")
		}
		if q.spawn != 0 || q.ran != q.scheduled {
			t.Fatalf("seed %d: %d spawns unspent, ran %d of %d events", seed, q.spawn, q.ran, q.scheduled)
		}
	}
}

// A heap element is five words, two of them pointers (the Task). The
// parent of this guard carried a schedule time and a second body form
// (fn func()) beside the task: 64 bytes, three pointer words. Every
// sift moves whole events under the write barrier, so the size is a
// machine-independent cost counter.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

// A frame is five words: the send ring, the delivery task and the MAC's
// pools copy it by value. The TTL byte sits in Class's padding.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 40", got)
	}
}

// A receiver's audible list is one cache line: a frame costs each of
// its receivers one line of radio state.
func TestAudibleListLayout(t *testing.T) {
	if got := unsafe.Sizeof(audibleList{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(audibleList{}) = %d, want 64", got)
	}
}

// An audible frame keeps its airtime in 16 bits, so a frame longer
// than math.MaxUint16 ms is refused where its airtime is computed.
func TestAirtimeBound(t *testing.T) {
	n := &Network{Params: DefaultParams()}
	n.txDuration(300_000) // 62 s on the air: fits
	defer func() {
		if recover() == nil {
			t.Fatal("a 67 s frame did not panic")
		}
	}()
	n.txDuration(320_000)
}

// At stores the closure in the event's Task through funcTask; a func
// value is pointer-shaped, so the conversion must not box. The heap
// slice is warmed first so append does not grow inside the measurement.
func TestAtPrebuiltClosureAllocsZero(t *testing.T) {
	s := NewSimulator(1)
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		s.At(Time(i), fn)
	}
	s.Run(64)
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+1, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At of a pre-built closure allocates %.1f/op, want 0", allocs)
	}
	if fired != 64+1001 {
		t.Fatalf("fired %d closures, want %d", fired, 64+1001)
	}
}
