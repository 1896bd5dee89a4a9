package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
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

// appendJSONRef is a plain strconv-based encoder of the JSONL format,
// the oracle the table-driven renderer is held to byte for byte.
func appendJSONRef(b []byte, e Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	f := e.Kind.fields()
	if f&fPeer != 0 {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
	}
	if f&fClass != 0 {
		b = append(b, `,"class":"`...)
		b = append(b, e.Class.String()...)
		b = append(b, '"')
	}
	if f&fCause != 0 {
		b = append(b, `,"cause":"`...)
		b = append(b, e.Cause.String()...)
		b = append(b, '"')
	}
	if f&fFlag != 0 {
		b = append(b, `,"flag":`...)
		b = strconv.AppendInt(b, int64(e.Flag), 10)
	}
	if f&fSize != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(e.Size), 10)
	}
	if f&fID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
	}
	if f&fReading != 0 {
		b = append(b, `,"producer":`...)
		b = strconv.AppendInt(b, int64(e.Producer), 10)
		b = append(b, `,"samplet":`...)
		b = strconv.AppendInt(b, e.SampleT, 10)
	}
	if f&fValue != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, e.Value, 10)
	}
	if f&fAux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendInt(b, e.Aux, 10)
	}
	return append(b, '}')
}

// FuzzAppendJSON holds the renderer to the reference encoder for any
// event, alone through AppendJSON and inside a block through the JSONL
// sink's writer.
func FuzzAppendJSON(f *testing.F) {
	extremes := []struct {
		i64 int64
		u16 uint16
		i32 int32
	}{{0, 0, 0}, {math.MaxInt64, math.MaxUint16, math.MaxInt32}, {math.MinInt64, 1, math.MinInt32}, {-1, 9, -1}, {-615001, 10, 100}}
	for k := 0; k < int(numKinds)+2; k++ {
		for i, x := range extremes {
			c := uint8(i + k)
			f.Add(x.i64, uint8(k), x.u16, x.u16, c, c, c, x.i32, x.u16, x.u16, x.i64, x.i64, x.i64)
		}
	}
	f.Fuzz(func(t *testing.T, tm int64, kind uint8, node, peer uint16, class, cause, flag uint8,
		size int32, id, producer uint16, sampleT, value, aux int64) {
		e := Event{T: tm, Kind: Kind(kind), Node: node, Peer: peer, Class: metrics.Class(class),
			Cause: metrics.DropCause(cause), Flag: flag, Size: size, ID: id, Producer: producer,
			SampleT: sampleT, Value: value, Aux: aux}
		want := appendJSONRef(nil, e)
		if got := AppendJSON(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", e, got, want)
		}
		// Behind an event with wide fields, so the block's wide cursor is
		// mid-way; again on another node, where a frame's events reuse
		// the text after the node; then with another peer, where they
		// must not.
		again, other := e, e
		again.Node++
		other.Peer++
		evs := []Event{{Kind: ReadingSampled, Value: 1}, e, again, other, {Kind: NodeDown}}
		var blk Block
		for i := range evs {
			blk.add(&evs[i])
		}
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		if err := s.write(&blk); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != len(evs) {
			t.Fatalf("block of %d events rendered %d lines", len(evs), len(lines))
		}
		for i, ev := range evs {
			if want := appendJSONRef(nil, ev); !bytes.Equal(lines[i], want) {
				t.Fatalf("block line %d of %+v\n got %s\nwant %s", i, e, lines[i], want)
			}
		}
	})
}

// maxLine must bound every line the renderer can produce, or the
// encoder would render past the writer's free space.
func TestMaxLineBound(t *testing.T) {
	longest := 0
	for k := 0; k < 256; k++ {
		for c := 0; c < 256; c++ {
			e := Event{T: math.MinInt64, Kind: Kind(k), Node: math.MaxUint16, Peer: math.MaxUint16,
				Class: metrics.Class(c), Cause: metrics.DropCause(c), Flag: math.MaxUint8,
				Size: math.MinInt32, ID: math.MaxUint16, Producer: math.MaxUint16,
				SampleT: math.MinInt64, Value: math.MinInt64, Aux: math.MinInt64}
			longest = max(longest, len(AppendJSON(nil, e))+1)
		}
	}
	if longest > maxLine {
		t.Fatalf("longest line is %d bytes, maxLine %d", longest, maxLine)
	}
}

// The sink's output must be exactly the inline encoding — the reference
// encoder applied event by event — whether the stream ends before, on
// or after a block boundary and whether the encoder shares one thread
// with the loop or not.
func TestJSONLMatchesInlineEncoding(t *testing.T) {
	const b = BlockSize
	events := extremeEvents(3*b + 7)
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
				var want []byte
				for _, e := range events[:n] {
					want = append(appendJSONRef(want, e), '\n')
				}
				var got bytes.Buffer
				serialTrace(t, events[:n], NewJSONL(&got))
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("n=%d: sink wrote %d bytes, reference encoding is %d (first difference at byte %d)",
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
	events := extremeEvents(BlockSize)

	t.Run("encoder", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := NewJSONL(&failAfter{n: 10_000, err: errBoom})
		var now int64
		rec := New(func() int64 { return now }, s)
		emit := func() {
			for _, e := range events {
				emitTo(rec, &now, e)
			}
		}
		emit()
		if s.full == nil {
			t.Fatal("a block started no encoder")
		}
		// Twenty more blocks, far past the failure: Record must keep
		// getting its blocks back from the failed encoder.
		recorded := make(chan struct{})
		go func() {
			for i := 0; i < 20; i++ {
				emit()
			}
			close(recorded)
		}()
		select {
		case <-recorded:
		case <-time.After(time.Minute):
			t.Fatal("Record blocked after the write error")
		}
		if err := rec.Close(); !errors.Is(err, errBoom) {
			t.Fatalf("Close = %v, want %v", err, errBoom)
		}
		if err := s.Close(); !errors.Is(err, errBoom) {
			t.Fatalf("a second Close = %v, want %v", err, errBoom)
		}
		waitGoroutines(t, base)
	})

	// A short trace stays in the write buffer until the final flush,
	// whose error Close must still report.
	t.Run("final flush", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := NewJSONL(&failAfter{n: 100, err: errBoom})
		var now int64
		rec := New(func() int64 { return now }, s)
		for _, e := range events[:10] {
			emitTo(rec, &now, e)
		}
		if err := rec.Close(); !errors.Is(err, errBoom) {
			t.Fatalf("Close = %v, want %v", err, errBoom)
		}
		if err := s.Close(); !errors.Is(err, errBoom) {
			t.Fatalf("a second Close = %v, want %v", err, errBoom)
		}
		waitGoroutines(t, base)
	})
}

// Once the pool exists, recording through a JSONL sink allocates
// nothing on the event loop.
func TestJSONLEnabledEmitAllocsZero(t *testing.T) {
	s := NewJSONL(io.Discard)
	rec := New(fixedClock(), s)
	e := Event{Kind: ReadingStored, Node: 4, Producer: 3, SampleT: 615000, Value: 30}
	for i := 0; i < 2*BlockSize; i++ {
		rec.Emit(e)
		rec.Packet(PacketRecv, 4, 0, metrics.Data, 30)
	}
	allocs := testing.AllocsPerRun(4*BlockSize, func() {
		rec.Emit(e)
		rec.Packet(PacketRecv, 4, 0, metrics.Data, 30)
	})
	if allocs != 0 {
		t.Fatalf("JSONL-sink Emit and Packet allocate %v per op, want 0", allocs)
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
