package main

import (
	"bytes"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// fanOutStream is n events in emission order, shaped like a grid run's
// trace: mostly per-frame radio events, one in eight a reading event
// with wide fields, several events per virtual millisecond.
func fanOutStream(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		node, t := uint16(i%250), int64(i/3)
		switch i % 8 {
		case 0:
			evs[i] = trace.Event{Kind: trace.ReadingStored, Node: node, Flag: trace.StoreOwner,
				Producer: node + 1, SampleT: t - 40, Value: int64(i % 97)}
		case 1:
			evs[i] = trace.Event{Kind: trace.PacketSend, Node: node, Peer: node / 2, Class: metrics.Data, Size: 30}
		case 2, 3, 4:
			evs[i] = trace.Event{Kind: trace.PacketSnoop, Node: node, Peer: node / 2, Class: metrics.Beacon, Size: 24}
		case 5:
			evs[i] = trace.Event{Kind: trace.PacketRecv, Node: node, Peer: node / 2, Class: metrics.Data, Size: 30}
		case 6:
			evs[i] = trace.Event{Kind: trace.PacketDrop, Node: node, Peer: node / 3, Class: metrics.Query,
				Cause: metrics.DropCollision, Size: 26}
		default:
			evs[i] = trace.Event{Kind: trace.QueryAnswered, Node: node, ID: 7, Value: int64(i)}
		}
		evs[i].T = t
	}
	return evs
}

// emitTo records e through rec the way the simulator does: the
// per-frame kinds through Packet, the rest through Emit, each at its
// own virtual time.
func emitTo(rec *trace.Recorder, now *int64, e trace.Event) {
	*now = e.T
	switch e.Kind {
	case trace.PacketSend, trace.PacketRecv, trace.PacketSnoop:
		rec.Packet(e.Kind, e.Node, e.Peer, e.Class, int(e.Size))
	default:
		rec.Emit(e)
	}
}

// serialTrace records evs on one recorder with the given sinks and
// closes it.
func serialTrace(t *testing.T, evs []trace.Event, sinks ...trace.Sink) {
	t.Helper()
	var now int64
	rec := trace.New(func() int64 { return now }, sinks...)
	for _, e := range evs {
		emitTo(rec, &now, e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// regionTrace records evs as a four-region run does: each event
// through one region's fork, keyed by its serial position, the regions
// emitting one after another, and the parent's Close replaying the
// merge into its sinks.
func regionTrace(t *testing.T, evs []trace.Event, sinks ...trace.Sink) {
	t.Helper()
	const k = 4
	parent := trace.New(func() int64 { return 0 }, sinks...)
	parent.Buffer()
	var now [k]int64
	var forks [k]*trace.Recorder
	for r := range forks {
		forks[r] = parent.Fork(func() int64 { return now[r] })
	}
	for r := range forks {
		for i := r; i < len(evs); i += k {
			forks[r].SetStamp(int32(i), 1)
			emitTo(forks[r], &now[r], evs[i])
		}
	}
	if err := parent.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkFanOutAtBlockBoundaries: for traces ending before, on and
// just past a block boundary, the JSONL bytes do not depend on the
// sinks beside the JSONL sink or on the region count, and the Ring
// beside it keeps the tail of that JSONL.
func TestSinkFanOutAtBlockBoundaries(t *testing.T) {
	const ringCap = 100
	for _, n := range []int{0, 1, trace.BlockSize, trace.BlockSize + 1} {
		evs := fanOutStream(n)

		var alone bytes.Buffer
		serialTrace(t, evs, trace.NewJSONL(&alone))

		var fan bytes.Buffer
		ring := trace.NewRing(ringCap)
		serialTrace(t, evs, trace.NewJSONL(&fan), ring)
		if !bytes.Equal(fan.Bytes(), alone.Bytes()) {
			t.Fatalf("n=%d: JSONL beside a Ring wrote %d bytes, alone %d", n, fan.Len(), alone.Len())
		}

		var regions bytes.Buffer
		regionTrace(t, evs, trace.NewJSONL(&regions))
		if !bytes.Equal(regions.Bytes(), alone.Bytes()) {
			t.Fatalf("n=%d: four regions replayed %d bytes, the serial recorder wrote %d", n, regions.Len(), alone.Len())
		}

		decoded, err := trace.ReadJSONL(bytes.NewReader(fan.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) != n || ring.Total() != int64(n) {
			t.Fatalf("n=%d: JSONL holds %d events, the ring saw %d", n, len(decoded), ring.Total())
		}
		tail := decoded[max(0, n-ringCap):]
		got := ring.Events()
		if len(got) != len(tail) {
			t.Fatalf("n=%d: ring keeps %d events, want the last %d", n, len(got), len(tail))
		}
		for i := range tail {
			if got[i] != tail[i] {
				t.Fatalf("n=%d: ring event %d = %+v, JSONL has %+v", n, i, got[i], tail[i])
			}
		}
	}
}
