// Package telemetry aggregates flight-recorder events into fixed-width
// sim-time windows: delivery rate, bytes by message class, drops by
// cause, reading throughput and reindex cost per window. A Series is a
// trace.Sink, so it can ride a live simulation next to other sinks.
//
// Everything here is deterministic: windows are keyed by integer
// division of the virtual timestamp, counters are integers, and
// rendering iterates slices in index order.
package telemetry

import (
	"fmt"
	"io"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// Window accumulates counters for one [Start,End) sim-time interval.
type Window struct {
	Start int64 // inclusive, virtual ms
	End   int64 // exclusive, virtual ms

	SentByClass  [metrics.NumClasses]int64 // transmissions per class
	BytesByClass [metrics.NumClasses]int64 // transmitted bytes per class
	Received     int64                     // link-layer deliveries to addressees
	Snoops       int64                     // frames overheard by non-addressees

	DropsByCause [metrics.NumDropCauses]int64

	Sampled   int64 // readings sampled
	Stored    int64 // reading storage events
	Lost      int64 // readings loss-accounted
	Delivered int64 // readings carried to the base by replies

	QueriesIssued   int64
	QueriesAnswered int64

	Reindexes         int64 // index rebuilds finishing in this window
	ReindexValues     int64 // value-domain entries examined
	ReindexRecomputed int64 // best-owner searches re-run
}

// Sent returns total transmissions in the window (all classes).
func (w *Window) Sent() int64 {
	var t int64
	for c := 0; c < metrics.NumClasses; c++ {
		t += w.SentByClass[c]
	}
	return t
}

// Bytes returns total transmitted bytes in the window.
func (w *Window) Bytes() int64 {
	var t int64
	for c := 0; c < metrics.NumClasses; c++ {
		t += w.BytesByClass[c]
	}
	return t
}

// Drops returns total packet drops in the window.
func (w *Window) Drops() int64 {
	var t int64
	for c := 0; c < metrics.NumDropCauses; c++ {
		t += w.DropsByCause[c]
	}
	return t
}

// DeliveryRate returns addressee deliveries per transmission — the
// link-layer delivery ratio for the window (0 when nothing was sent).
func (w *Window) DeliveryRate() float64 {
	sent := w.Sent()
	if sent == 0 {
		return 0
	}
	return float64(w.Received) / float64(sent)
}

// Series buckets trace events into contiguous windows of fixed width.
// The zero value is not usable; use NewSeries.
type Series struct {
	width   int64
	windows []Window
}

// NewSeries returns a Series with the given window width in virtual
// milliseconds (minimum 1).
func NewSeries(width int64) *Series {
	if width < 1 {
		width = 1
	}
	return &Series{width: width}
}

// Width returns the window width in virtual milliseconds.
func (s *Series) Width() int64 { return s.width }

// window returns the bucket covering time t, growing the series (with
// empty intermediate windows) as needed.
func (s *Series) window(t int64) *Window {
	if t < 0 {
		t = 0
	}
	idx := int(t / s.width)
	for len(s.windows) <= idx {
		start := int64(len(s.windows)) * s.width
		s.windows = append(s.windows, Window{Start: start, End: start + s.width})
	}
	return &s.windows[idx]
}

// Record implements trace.Sink: fold every event of the block.
func (s *Series) Record(b *trace.Block) { b.Each(s.add) }

// add counts e in the window covering its timestamp.
func (s *Series) add(e trace.Event) {
	w := s.window(e.T)
	switch e.Kind {
	case trace.PacketSend:
		w.SentByClass[e.Class]++
		w.BytesByClass[e.Class] += int64(e.Size)
	case trace.PacketRecv:
		w.Received++
	case trace.PacketSnoop:
		w.Snoops++
	case trace.PacketDrop, trace.PacketPurge:
		w.DropsByCause[e.Cause]++
	case trace.ReadingSampled:
		w.Sampled++
	case trace.ReadingStored:
		w.Stored++
	case trace.ReadingLost:
		w.Lost++
	case trace.ReadingDelivered:
		w.Delivered++
	case trace.QueryIssued:
		w.QueriesIssued++
	case trace.QueryAnswered:
		w.QueriesAnswered++
	case trace.ReindexEnd:
		w.Reindexes++
		w.ReindexValues += int64(e.Size)
		w.ReindexRecomputed += e.Value
	}
}

// Close implements trace.Sink.
func (s *Series) Close() error { return nil }

// Windows returns the accumulated windows in time order. The slice is
// the Series' own backing store; callers must not mutate it.
func (s *Series) Windows() []Window { return s.windows }

// WriteTable renders the series as an aligned text table, one row per
// window — the scoopflight -window view.
func (s *Series) WriteTable(out io.Writer) error {
	if _, err := fmt.Fprintf(out, "%10s %7s %7s %6s %7s %9s %7s %7s %7s %7s %8s\n",
		"window", "sent", "recv", "rate", "drops", "bytes", "sampled", "stored", "lost", "deliv", "reindex"); err != nil {
		return err
	}
	for i := range s.windows {
		w := &s.windows[i]
		if _, err := fmt.Fprintf(out, "%9ds %7d %7d %6.2f %7d %9d %7d %7d %7d %7d %8d\n",
			w.Start/1000, w.Sent(), w.Received, w.DeliveryRate(), w.Drops(),
			w.Bytes(), w.Sampled, w.Stored, w.Lost, w.Delivered, w.ReindexRecomputed); err != nil {
			return err
		}
	}
	return nil
}
