package netsim

import (
	"math/rand"
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
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, s.Rand().Int63n(1000))
			if len(draws) < 20 {
				s.After(Time(s.Rand().Int63n(50)+1), tick)
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

func TestEventHeapOrdering(t *testing.T) {
	// Push events in random time order and verify the hand-rolled heap
	// pops them back sorted by (time, schedule order).
	s := NewSimulator(1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s.push(event{at: Time(r.Intn(100)), oseq: uint64(i)})
	}
	if s.Pending() != 50 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	var prev event
	for i := 0; i < 50; i++ {
		e := s.pop()
		if i > 0 && eventLess(&e, &prev) {
			t.Fatalf("pop %d out of order: %v after %v", i, e.at, prev.at)
		}
		prev = e
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", s.Pending())
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
