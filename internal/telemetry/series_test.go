package telemetry

import (
	"strings"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// fold hands events to s the way a Recorder does, a block at a time.
func fold(s *Series, events ...trace.Event) { trace.Feed(events, s) }

func TestSeriesBucketsByWindow(t *testing.T) {
	s := NewSeries(1000)
	fold(s, trace.Event{T: 10, Kind: trace.PacketSend, Class: metrics.Data, Size: 30})
	fold(s, trace.Event{T: 900, Kind: trace.PacketRecv, Class: metrics.Data, Size: 30})
	fold(s, trace.Event{T: 2500, Kind: trace.PacketSend, Class: metrics.Query, Size: 24})
	fold(s, trace.Event{T: 2600, Kind: trace.PacketDrop, Cause: metrics.DropCollision})
	ws := s.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3 (contiguous with gap filled)", len(ws))
	}
	if ws[0].Start != 0 || ws[0].End != 1000 || ws[2].Start != 2000 {
		t.Fatalf("window bounds wrong: %+v", ws)
	}
	if ws[0].SentByClass[metrics.Data] != 1 || ws[0].Received != 1 {
		t.Fatalf("window 0 = %+v", ws[0])
	}
	if ws[1].Sent() != 0 {
		t.Fatal("gap window not empty")
	}
	if ws[2].SentByClass[metrics.Query] != 1 || ws[2].DropsByCause[metrics.DropCollision] != 1 {
		t.Fatalf("window 2 = %+v", ws[2])
	}
	if ws[2].Bytes() != 24 || ws[2].Drops() != 1 {
		t.Fatalf("window 2 totals wrong: bytes=%d drops=%d", ws[2].Bytes(), ws[2].Drops())
	}
}

func TestSeriesReadingAndReindexCounters(t *testing.T) {
	s := NewSeries(60_000)
	fold(s, trace.Event{T: 1, Kind: trace.ReadingSampled, Producer: 3, SampleT: 1})
	fold(s, trace.Event{T: 2, Kind: trace.ReadingStored, Producer: 3, SampleT: 1})
	fold(s, trace.Event{T: 3, Kind: trace.ReadingLost, Producer: 4, SampleT: 2})
	fold(s, trace.Event{T: 4, Kind: trace.ReadingDelivered, Producer: 3, SampleT: 1})
	fold(s, trace.Event{T: 5, Kind: trace.QueryIssued, ID: 1})
	fold(s, trace.Event{T: 6, Kind: trace.QueryAnswered, ID: 1, Value: 2})
	fold(s, trace.Event{T: 7, Kind: trace.ReindexEnd, Size: 100, Value: 17, Aux: 3})
	w := s.Windows()[0]
	if w.Sampled != 1 || w.Stored != 1 || w.Lost != 1 || w.Delivered != 1 {
		t.Fatalf("reading counters = %+v", w)
	}
	if w.QueriesIssued != 1 || w.QueriesAnswered != 1 {
		t.Fatalf("query counters = %+v", w)
	}
	if w.Reindexes != 1 || w.ReindexValues != 100 || w.ReindexRecomputed != 17 {
		t.Fatalf("reindex counters = %+v", w)
	}
}

func TestDeliveryRate(t *testing.T) {
	s := NewSeries(1000)
	var w Window
	if w.DeliveryRate() != 0 {
		t.Fatal("empty window rate must be 0")
	}
	fold(s, trace.Event{T: 0, Kind: trace.PacketSend, Class: metrics.Data, Size: 30})
	fold(s, trace.Event{T: 1, Kind: trace.PacketSend, Class: metrics.Data, Size: 30})
	fold(s, trace.Event{T: 2, Kind: trace.PacketRecv, Class: metrics.Data, Size: 30})
	if got := s.Windows()[0].DeliveryRate(); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
}

func TestSeriesAsRecorderSink(t *testing.T) {
	s := NewSeries(1000)
	clock := int64(0)
	rec := trace.New(func() int64 { return clock }, s)
	rec.Emit(trace.Event{Kind: trace.PacketSend, Node: 1, Class: metrics.Beacon, Size: 12})
	clock = 1500
	rec.Emit(trace.Event{Kind: trace.PacketSnoop, Node: 2, Peer: 1, Class: metrics.Beacon, Size: 12})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	ws := s.Windows()
	if len(ws) != 2 || ws[0].SentByClass[metrics.Beacon] != 1 || ws[1].Snoops != 1 {
		t.Fatalf("windows = %+v", ws)
	}
}

// Windows are [Start,End): an event stamped exactly on a window
// boundary belongs to the later window.
func TestSeriesWindowBoundary(t *testing.T) {
	s := NewSeries(1000)
	fold(s, trace.Event{T: 999, Kind: trace.PacketRecv})
	fold(s, trace.Event{T: 1000, Kind: trace.PacketRecv}) // exactly on the edge
	ws := s.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if ws[0].Received != 1 || ws[1].Received != 1 {
		t.Fatalf("boundary event in wrong window: %+v", ws)
	}
	if ws[1].Start != 1000 || ws[1].End != 2000 {
		t.Fatalf("window 1 bounds = [%d,%d), want [1000,2000)", ws[1].Start, ws[1].End)
	}
	// Negative timestamps clamp into the first window rather than
	// panicking or growing backwards.
	fold(s, trace.Event{T: -5, Kind: trace.PacketRecv})
	if got := s.Windows()[0].Received; got != 2 {
		t.Fatalf("negative-T event not clamped to window 0: %d", got)
	}
}

// A late event materialises every intermediate window, empty but with
// correct contiguous bounds — consumers may rely on index i covering
// [i*width, (i+1)*width).
func TestSeriesEmptyIntermediateWindows(t *testing.T) {
	s := NewSeries(500)
	fold(s, trace.Event{T: 0, Kind: trace.PacketRecv})
	fold(s, trace.Event{T: 2600, Kind: trace.PacketRecv})
	ws := s.Windows()
	if len(ws) != 6 {
		t.Fatalf("windows = %d, want 6", len(ws))
	}
	for i := 1; i < 5; i++ {
		w := ws[i]
		if w.Received != 0 || w.Sent() != 0 || w.Drops() != 0 {
			t.Fatalf("intermediate window %d not empty: %+v", i, w)
		}
		if w.Start != int64(i)*500 || w.End != int64(i+1)*500 {
			t.Fatalf("window %d bounds = [%d,%d)", i, w.Start, w.End)
		}
	}
	if ws[5].Received != 1 {
		t.Fatalf("late event missing from window 5: %+v", ws[5])
	}
}

func TestWriteTable(t *testing.T) {
	s := NewSeries(1000)
	fold(s, trace.Event{T: 100, Kind: trace.PacketSend, Class: metrics.Data, Size: 30})
	var sb strings.Builder
	if err := s.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "window") || !strings.Contains(out, "rate") {
		t.Fatalf("missing header: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatalf("want header + 1 row:\n%s", out)
	}
}
