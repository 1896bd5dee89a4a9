package trace

import (
	"bytes"
	"testing"

	"scoop/internal/metrics"
)

// fanOutStream is n events in emission order, shaped like a grid run's
// trace: mostly per-frame radio events, one in eight a reading event
// with wide fields, several events per virtual millisecond.
func fanOutStream(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		node, t := uint16(i%250), int64(i/3)
		switch i % 8 {
		case 0:
			evs[i] = Event{Kind: ReadingStored, Node: node, Flag: StoreOwner,
				Producer: node + 1, SampleT: t - 40, Value: int64(i % 97)}
		case 1:
			evs[i] = Event{Kind: PacketSend, Node: node, Peer: node / 2, Class: metrics.Data, Size: 30}
		case 2, 3, 4:
			evs[i] = Event{Kind: PacketSnoop, Node: node, Peer: node / 2, Class: metrics.Beacon, Size: 24}
		case 5:
			evs[i] = Event{Kind: PacketRecv, Node: node, Peer: node / 2, Class: metrics.Data, Size: 30}
		case 6:
			evs[i] = Event{Kind: PacketDrop, Node: node, Peer: node / 3, Class: metrics.Query,
				Cause: metrics.DropCollision, Size: 26}
		default:
			evs[i] = Event{Kind: QueryAnswered, Node: node, ID: 7, Value: int64(i)}
		}
		evs[i].T = t
	}
	return evs
}

// emitTo records e through rec the way the simulator does: the
// per-frame kinds through Packet, the rest through Emit, each at its
// own virtual time.
func emitTo(rec *Recorder, now *int64, e Event) {
	*now = e.T
	switch e.Kind {
	case PacketSend, PacketRecv, PacketSnoop:
		rec.Packet(e.Kind, e.Node, e.Peer, e.Class, int(e.Size))
	default:
		rec.Emit(e)
	}
}

// serialTrace records evs on one recorder with the given sinks and
// closes it.
func serialTrace(t *testing.T, evs []Event, sinks ...Sink) {
	t.Helper()
	var now int64
	rec := New(func() int64 { return now }, sinks...)
	for _, e := range evs {
		emitTo(rec, &now, e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkFanOutAtBlockBoundaries: for traces ending before, on and
// just past a block boundary, the JSONL bytes do not depend on the
// sinks beside the JSONL sink, and a collecting sink beside it sees
// exactly the events that JSONL decodes to.
func TestSinkFanOutAtBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, BlockSize, BlockSize + 1} {
		evs := fanOutStream(n)

		var alone bytes.Buffer
		serialTrace(t, evs, NewJSONL(&alone))

		var fan bytes.Buffer
		kept := &collect{}
		serialTrace(t, evs, NewJSONL(&fan), kept)
		if !bytes.Equal(fan.Bytes(), alone.Bytes()) {
			t.Fatalf("n=%d: JSONL beside a collecting sink wrote %d bytes, alone %d", n, fan.Len(), alone.Len())
		}

		decoded, err := ReadJSONL(bytes.NewReader(fan.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) != n || len(kept.evs) != n {
			t.Fatalf("n=%d: JSONL holds %d events, the collecting sink %d", n, len(decoded), len(kept.evs))
		}
		for i := range decoded {
			if kept.evs[i] != decoded[i] {
				t.Fatalf("n=%d: collected event %d = %+v, JSONL has %+v", n, i, kept.evs[i], decoded[i])
			}
		}
	}
}
