package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"scoop/internal/metrics"
)

// pick returns lo, hi, zero or a uniform draw over T's whole range.
func pick[T int64 | int32 | uint16 | uint8](r *rand.Rand, lo, hi T) T {
	switch r.IntN(4) {
	case 0:
		return lo
	case 1:
		return hi
	case 2:
		return 0
	}
	return T(r.Uint64())
}

// extremeEvents cycles through every kind — the invalid zero kind and
// two out-of-range values included — with every field at an extreme or
// a random value, so lines take every shape and length AppendJSON has.
func extremeEvents(n int) []Event {
	r := rand.New(rand.NewPCG(27, 0))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			T:        pick[int64](r, math.MinInt64, math.MaxInt64),
			Kind:     Kind(i % (int(numKinds) + 2)),
			Node:     pick[uint16](r, 0, math.MaxUint16),
			Peer:     pick[uint16](r, 0, math.MaxUint16),
			Class:    metrics.Class(pick[uint8](r, 0, math.MaxUint8)),
			Cause:    metrics.DropCause(pick[uint8](r, 0, math.MaxUint8)),
			Flag:     pick[uint8](r, 0, math.MaxUint8),
			Size:     pick[int32](r, math.MinInt32, math.MaxInt32),
			ID:       pick[uint16](r, 0, math.MaxUint16),
			Producer: pick[uint16](r, 0, math.MaxUint16),
			SampleT:  pick[int64](r, math.MinInt64, math.MaxInt64),
			Value:    pick[int64](r, math.MinInt64, math.MaxInt64),
			Aux:      pick[int64](r, math.MinInt64, math.MaxInt64),
		}
	}
	return evs
}

// The sink's output must be exactly the inline encoding, line after
// line, whether the stream ends before, on or after a block boundary
// and whether the encoder shares one thread with the loop or not.
func TestJSONLMatchesInlineEncoding(t *testing.T) {
	const b = jsonlBlock
	events := extremeEvents(3*b + 7)
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
				var want []byte
				for _, e := range events[:n] {
					want = append(AppendJSON(want, e), '\n')
				}
				var got bytes.Buffer
				s := NewJSONL(&got)
				for _, e := range events[:n] {
					s.Record(e)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("n=%d: Close: %v", n, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("n=%d: sink wrote %d bytes, inline encoding is %d (first difference at byte %d)",
						n, got.Len(), len(want), firstDiff(got.Bytes(), want))
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, w.err
}

// waitGoroutines waits for the goroutine count to fall to base: an
// encoder has sent its result when Close returns but may not have
// exited yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestJSONLWriteErrorSurfaces(t *testing.T) {
	errBoom := errors.New("boom")
	events := extremeEvents(jsonlBlock)

	t.Run("encoder", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := NewJSONL(&failAfter{n: 10_000, err: errBoom})
		for _, e := range events {
			s.Record(e)
		}
		if s.full == nil {
			t.Fatal("a full block started no encoder")
		}
		// Twenty more blocks, far past the failure: Record must keep
		// getting its blocks back from the failed encoder.
		recorded := make(chan struct{})
		go func() {
			for i := 0; i < 20*jsonlBlock; i++ {
				s.Record(events[i%len(events)])
			}
			close(recorded)
		}()
		select {
		case <-recorded:
		case <-time.After(time.Minute):
			t.Fatal("Record blocked after the write error")
		}
		for i := 0; i < 2; i++ {
			if err := s.Close(); !errors.Is(err, errBoom) {
				t.Fatalf("Close #%d = %v, want %v", i+1, err, errBoom)
			}
		}
		waitGoroutines(t, base)
	})

	t.Run("inline", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := NewJSONL(&failAfter{n: 100, err: errBoom})
		for _, e := range events[:jsonlBlock-1] {
			s.Record(e)
		}
		if s.full != nil || runtime.NumGoroutine() > base {
			t.Fatal("a trace shorter than one block started the encoder")
		}
		for i := 0; i < 2; i++ {
			if err := s.Close(); !errors.Is(err, errBoom) {
				t.Fatalf("Close #%d = %v, want %v", i+1, err, errBoom)
			}
		}
	})
}

// Once the pool exists, recording through a JSONL sink allocates
// nothing on the event loop.
func TestJSONLEnabledEmitAllocsZero(t *testing.T) {
	s := NewJSONL(io.Discard)
	rec := New(fixedClock(), s)
	e := Event{Kind: PacketRecv, Node: 4, Peer: 0, Class: metrics.Data, Size: 30}
	for i := 0; i < 2*jsonlBlock; i++ {
		rec.Emit(e)
	}
	if allocs := testing.AllocsPerRun(4*jsonlBlock, func() { rec.Emit(e) }); allocs != 0 {
		t.Fatalf("JSONL-sink Emit allocates %v per op, want 0", allocs)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// masked clears the fields outside e's kind mask: AppendJSON omits
// them, so a decoded line that sets one cannot survive a round trip.
func masked(e Event) Event {
	f := e.Kind.fields()
	m := Event{T: e.T, Kind: e.Kind, Node: e.Node}
	if f&fPeer != 0 {
		m.Peer = e.Peer
	}
	if f&fClass != 0 {
		m.Class = e.Class
	}
	if f&fCause != 0 {
		m.Cause = e.Cause
	}
	if f&fFlag != 0 {
		m.Flag = e.Flag
	}
	if f&fSize != 0 {
		m.Size = e.Size
	}
	if f&fID != 0 {
		m.ID = e.ID
	}
	if f&fReading != 0 {
		m.Producer, m.SampleT = e.Producer, e.SampleT
	}
	if f&fValue != 0 {
		m.Value = e.Value
	}
	if f&fAux != 0 {
		m.Aux = e.Aux
	}
	return m
}

// FuzzParseLine: no input panics the reader, and any line it decodes
// re-encodes through AppendJSON to a line that decodes to the same
// event (its fields outside the kind's mask dropped).
func FuzzParseLine(f *testing.F) {
	for i, e := range roundTripEvents {
		e.T = int64(i)
		f.Add(AppendJSON(nil, e))
	}
	f.Add([]byte(`{"t":-1,"kind":"node-down","node":2,"peer":9,"class":"beacon"}`))
	f.Add([]byte(`{"t":1,"kind":"packet-drop","cause":"nope"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := ParseLine(line)
		if err != nil {
			return
		}
		enc := AppendJSON(nil, e)
		back, err := ParseLine(enc)
		if err != nil {
			t.Fatalf("%s decodes, but its re-encoding %s does not: %v", line, enc, err)
		}
		if want := masked(e); back != want {
			t.Fatalf("%s: re-encoding %s decodes to %+v, want %+v", line, enc, back, want)
		}
	})
}
