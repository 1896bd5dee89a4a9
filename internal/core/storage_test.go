package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scoop/internal/netsim"
)

// whole lists every stored reading oldest-first: Select with an
// inverted value range and an unbounded window is the whole log.
func whole(s selecter) []Reading { return collect(s, 1, 0, math.MinInt64, math.MaxInt64) }

// values lists the stored values oldest-first.
func values(b *DataBuffer) []int {
	var out []int
	for _, r := range whole(b) {
		out = append(out, r.Value)
	}
	return out
}

// newRecentBuffer returns an empty recent-readings buffer of n slots,
// as a node's slab carves one.
func newRecentBuffer(n int) *RecentBuffer { return &RecentBuffer{buf: make([]int, n)} }

func TestDataBufferStoreAndScan(t *testing.T) {
	b := NewDataBuffer(4, new(netsim.Blocks[Reading]))
	for i := 0; i < 3; i++ {
		b.Store(Reading{Producer: 1, Value: i, Time: int64(i)})
	}
	if len(b.buf) != 3 || b.cap != 4 {
		t.Fatalf("len=%d cap=%d", len(b.buf), b.cap)
	}
	got := values(b)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

func TestDataBufferWrapAround(t *testing.T) {
	b := NewDataBuffer(3, new(netsim.Blocks[Reading]))
	for i := 0; i < 5; i++ {
		b.Store(Reading{Value: i, Time: int64(i)})
	}
	if len(b.buf) != 3 {
		t.Fatalf("len = %d after wrap, want 3", len(b.buf))
	}
	got := values(b)
	want := []int{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-wrap scan %v, want %v", got, want)
		}
	}
}

// selecter is what DataBuffer and its reference ring share.
type selecter interface {
	Select(vmin, vmax int, tmin, tmax int64, fn func(Reading))
}

// collect gathers what Select hands its callback.
func collect(s selecter, vmin, vmax int, tmin, tmax int64) []Reading {
	var out []Reading
	s.Select(vmin, vmax, tmin, tmax, func(r Reading) { out = append(out, r) })
	return out
}

func TestDataBufferSelect(t *testing.T) {
	b := NewDataBuffer(100, new(netsim.Blocks[Reading]))
	for i := 0; i < 50; i++ {
		b.Store(Reading{Producer: uint16(i % 3), Value: i % 10, Time: int64(i * 100)})
	}
	got := collect(b, 3, 5, 1000, 3000)
	for _, r := range got {
		if r.Value < 3 || r.Value > 5 {
			t.Fatalf("value %d outside range", r.Value)
		}
		if r.Time < 1000 || r.Time > 3000 {
			t.Fatalf("time %d outside range", r.Time)
		}
	}
	// Count expected matches directly.
	want := 0
	for i := 0; i < 50; i++ {
		v, tm := i%10, int64(i*100)
		if v >= 3 && v <= 5 && tm >= 1000 && tm <= 3000 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("select returned %d readings, want %d", len(got), want)
	}
	// An inverted value range lifts the value filter, not the time one:
	// times 1000..3000 are the 21 readings i = 10..30.
	if got := collect(b, 1, 0, 1000, 3000); len(got) != 21 {
		t.Fatalf("inverted value range returned %d readings, want 21", len(got))
	}
}

func TestDataBufferSelectEmpty(t *testing.T) {
	b := NewDataBuffer(5, new(netsim.Blocks[Reading]))
	if got := collect(b, 0, 100, 0, 100); len(got) != 0 {
		t.Fatalf("select on empty buffer returned %d readings", len(got))
	}
}

func TestNewDataBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDataBuffer(0, new(netsim.Blocks[Reading]))
}

// Property: after any sequence of stores, the log holds exactly the last
// min(n, cap) values in insertion order.
func TestDataBufferWindowProperty(t *testing.T) {
	f := func(vals []int16, capSeed uint8) bool {
		capacity := int(capSeed%20) + 1
		b := NewDataBuffer(capacity, new(netsim.Blocks[Reading]))
		for i, v := range vals {
			b.Store(Reading{Value: int(v), Time: int64(i)})
		}
		got := values(b)
		start := 0
		if len(vals) > capacity {
			start = len(vals) - capacity
		}
		want := vals[start:]
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != int(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecentBufferRoundRobin(t *testing.T) {
	b := newRecentBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Add(i * 10)
	}
	vals := b.AppendValues(nil)
	want := []int{30, 40, 50}
	if len(vals) != 3 {
		t.Fatalf("len = %d", len(vals))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values %v, want %v", vals, want)
		}
	}
}

func TestRecentBufferMinMaxSum(t *testing.T) {
	b := newRecentBuffer(10)
	if _, _, _, ok := b.MinMaxSum(); ok {
		t.Fatal("MinMaxSum on empty buffer reported ok")
	}
	for _, v := range []int{5, 2, 9, 2} {
		b.Add(v)
	}
	min, max, sum, ok := b.MinMaxSum()
	if !ok || min != 2 || max != 9 || sum != 18 {
		t.Fatalf("min=%d max=%d sum=%d ok=%v", min, max, sum, ok)
	}
}

func TestRecentBufferPartialFill(t *testing.T) {
	b := newRecentBuffer(30)
	b.Add(7)
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
	if vals := b.AppendValues(nil); len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("values = %v", vals)
	}
}

// Property: AppendValues is the last readings added, oldest-first, and
// MinMaxSum agrees with a direct computation over them.
func TestRecentBufferMinMaxSumProperty(t *testing.T) {
	f := func(vals []int16, size uint8) bool {
		n := int(size%30) + 1
		b := newRecentBuffer(n)
		for _, v := range vals {
			b.Add(int(v))
		}
		min, max, sum, ok := b.MinMaxSum()
		vv := b.AppendValues([]int{-1})[1:] // appends after what dst holds
		kept := len(vals)
		if kept > n {
			kept = n
		}
		if len(vv) != kept {
			return false
		}
		for i, v := range vv {
			if v != int(vals[len(vals)-len(vv)+i]) {
				return false
			}
		}
		if len(vv) == 0 {
			return !ok
		}
		wmin, wmax, wsum := vv[0], vv[0], 0
		for _, v := range vv {
			if v < wmin {
				wmin = v
			}
			if v > wmax {
				wmax = v
			}
			wsum += v
		}
		return ok && min == wmin && max == wmax && sum == wsum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refRing is the eager ring DataBuffer used to be, kept as the
// reference model: the whole capacity is allocated and zeroed up front
// and indexed modulo the capacity from the first Store. Its cost is the
// Flash a mote could fill; its answers are the specification.
type refRing struct {
	buf   []Reading
	next  int
	count int
}

func newRefRing(capacity int) *refRing { return &refRing{buf: make([]Reading, capacity)} }

func (b *refRing) Store(r Reading) {
	b.buf[b.next] = r
	b.next = (b.next + 1) % len(b.buf)
	if b.count < len(b.buf) {
		b.count++
	}
}

func (b *refRing) Scan(fn func(Reading) bool) {
	start := 0
	if b.count == len(b.buf) {
		start = b.next
	}
	for i := 0; i < b.count; i++ {
		if !fn(b.buf[(start+i)%len(b.buf)]) {
			return
		}
	}
}

func (b *refRing) Select(vmin, vmax int, tmin, tmax int64, fn func(Reading)) {
	b.Scan(func(r Reading) bool {
		if (vmin > vmax || r.Value >= vmin && r.Value <= vmax) && r.Time >= tmin && r.Time <= tmax {
			fn(r)
		}
		return true
	})
}

// TestDataBufferMatchesReferenceRing drives the grow-on-demand buffer
// and the eager ring with the same random Store / whole-log Select /
// windowed Select stream and requires the same answer from every call,
// through the fill → wrap boundary and several laps past it. Capacities
// 1 and 2 and a stream that ends exactly at fill are the edge cases.
func TestDataBufferMatchesReferenceRing(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 2, 3, 8, 9, 37, 64, 200}[seed%8]
		stores := capacity * (1 + rng.Intn(4)) // 1× ends exactly at fill
		if seed%8 >= 4 {
			stores += rng.Intn(capacity)
		}
		b, ref := NewDataBuffer(capacity, new(netsim.Blocks[Reading])), newRefRing(capacity)
		check := func(step int) {
			t.Helper()
			if len(b.buf) != ref.count || b.cap != len(ref.buf) {
				t.Fatalf("seed %d step %d: len/cap %d/%d, reference %d/%d", seed, step,
					len(b.buf), b.cap, ref.count, len(ref.buf))
			}
			if got, want := whole(b), whole(ref); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: whole log %v, reference %v", seed, step, got, want)
			}
			vlo, tlo := rng.Intn(50), int64(rng.Intn(stores+1))
			vhi, thi := vlo+rng.Intn(50), tlo+int64(rng.Intn(stores+1))
			if got, want := collect(b, vlo, vhi, tlo, thi), collect(ref, vlo, vhi, tlo, thi); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Select %v, reference %v", seed, step, got, want)
			}
		}
		check(0)
		for i := 1; i <= stores; i++ {
			r := Reading{Producer: uint16(rng.Intn(9)), Value: rng.Intn(100), Time: int64(i)}
			b.Store(r)
			ref.Store(r)
			if capacity <= 9 || rng.Intn(4) == 0 || i == capacity || i == capacity+1 || i == stores {
				check(i)
			}
		}
	}
}

// TestDataBufferStoreAtCapacityAllocsZero pins the steady state: once
// the log is full, Store overwrites in place.
func TestDataBufferStoreAtCapacityAllocsZero(t *testing.T) {
	b := NewDataBuffer(100, new(netsim.Blocks[Reading]))
	for i := 0; i < 100; i++ {
		b.Store(Reading{Value: i})
	}
	if cap(b.buf) != 100 {
		t.Fatalf("full buffer backs %d readings, want its capacity 100", cap(b.buf))
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Store(Reading{Value: 7}) }); allocs != 0 {
		t.Fatalf("Store at capacity allocates %v times per call", allocs)
	}
}

// A summary reads the ring twice — min/max/sum, then the values for the
// histogram — and neither read allocates once the caller's buffer has
// the ring's size.
func TestRecentBufferReadsAllocsZero(t *testing.T) {
	b := newRecentBuffer(30)
	for v := 0; v < 45; v++ {
		b.Add(v)
	}
	buf := make([]int, 0, 30)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := b.MinMaxSum(); !ok {
			t.Fatal("MinMaxSum on a full buffer reported !ok")
		}
	}); allocs != 0 {
		t.Errorf("MinMaxSum allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = b.AppendValues(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendValues into a reused buffer allocates %v times per call, want 0", allocs)
	}
	if len(buf) != 30 || buf[0] != 15 || buf[29] != 44 {
		t.Fatalf("AppendValues = %v, want 15..44", buf)
	}
}
