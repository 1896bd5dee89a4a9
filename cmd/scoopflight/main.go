// Command scoopflight replays and summarises flight-recorder traces —
// the JSONL event streams scoopsim -trace and exp.Config.TraceSinks
// write. It filters by node, message class, event kind, or one
// reading's lifecycle, prints matching events, and counts them per
// fixed-width window of virtual time.
//
// Examples:
//
//	scoopflight trace.jsonl                      # whole-run summary
//	scoopflight -node 7 -print 20 trace.jsonl    # first 20 events on node 7
//	scoopflight -class data -window 60s trace.jsonl
//	scoopflight -reading 12@615001 -print -1 trace.jsonl
//	scoopflight -kind packet-drop trace.jsonl    # where frames died
//	scoopflight -dwell trace.jsonl               # sample→event lag histograms
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"scoop/internal/core"
	"scoop/internal/histogram"
	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// filter is the event predicate assembled from the flags.
type filter struct {
	node      int // -1: any
	class     metrics.Class
	byClass   bool
	kinds     map[trace.Kind]bool
	reading   *trace.ReadingID
	verdict   core.Verdict
	byVerdict bool
}

func (f *filter) keep(e trace.Event) bool {
	if f.node >= 0 && int(e.Node) != f.node {
		return false
	}
	if f.byClass && (!e.Kind.CarriesClass() || e.Class != f.class) {
		return false
	}
	if f.kinds != nil && !f.kinds[e.Kind] {
		return false
	}
	if f.byVerdict && (e.Kind != trace.QueryVerdict || core.Verdict(e.Flag) != f.verdict) {
		return false
	}
	if f.reading != nil {
		if !e.Kind.CarriesReading() || e.Producer != f.reading.Producer {
			return false
		}
		if f.reading.Time >= 0 && e.SampleT != f.reading.Time {
			return false
		}
	}
	return true
}

// parseReading parses "producer" or "producer@sampletime".
func parseReading(s string) (*trace.ReadingID, error) {
	prod, at, hasAt := strings.Cut(s, "@")
	p, err := strconv.ParseUint(prod, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("scoopflight: bad -reading producer %q", prod)
	}
	id := &trace.ReadingID{Producer: uint16(p), Time: -1}
	if hasAt {
		t, err := strconv.ParseInt(at, 10, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("scoopflight: bad -reading sample time %q", at)
		}
		id.Time = t
	}
	return id, nil
}

func parseKinds(s string) (map[trace.Kind]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[trace.Kind]bool)
	for _, name := range strings.Split(s, ",") {
		k, ok := trace.ParseKind(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("scoopflight: unknown event kind %q", name)
		}
		out[k] = true
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scoopflight", flag.ContinueOnError)
	var (
		nodeF    = fs.Int("node", -1, "keep only events on this node (-1: all)")
		classF   = fs.String("class", "", "keep only packet events of this message class (data, summary, mapping, query, reply, aggreply, beacon)")
		kindF    = fs.String("kind", "", "keep only these event kinds (comma-separated wire names)")
		readingF = fs.String("reading", "", "follow one reading's lifecycle: producer[@sampletime]")
		windowF  = fs.Duration("window", 0, "count kept events per window of this (virtual) width and print one row per window")
		printF   = fs.Int("print", 0, "print this many kept events as JSONL (-1: all)")
		verdictF = fs.String("verdict", "", "keep only query-verdict events that settled this way (complete, partial, degraded, failed)")
		dwellF   = fs.Bool("dwell", false, "print per-kind sample→event dwell histograms (virtual ms from a reading's sample time to the event)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scoopflight: want exactly one trace file, got %d args", fs.NArg())
	}

	switch {
	case *nodeF < -1 || *nodeF > math.MaxUint16:
		return fmt.Errorf("scoopflight: -node %d is not a node ID (0..%d, or -1 for all)", *nodeF, math.MaxUint16)
	case *printF < -1:
		return fmt.Errorf("scoopflight: -print %d: want a count, or -1 for all", *printF)
	case *windowF < 0:
		return fmt.Errorf("scoopflight: -window %v is negative", *windowF)
	case *windowF%time.Millisecond != 0:
		return fmt.Errorf("scoopflight: -window %v is not a whole number of milliseconds, the trace clock's tick", *windowF)
	case *windowF > 0 && *dwellF:
		return fmt.Errorf("scoopflight: -window and -dwell are separate views; pick one")
	}
	flt := filter{node: *nodeF}
	if *classF != "" {
		c, ok := metrics.ParseClass(*classF)
		if !ok {
			return fmt.Errorf("scoopflight: unknown message class %q", *classF)
		}
		flt.class, flt.byClass = c, true
	}
	var err error
	if flt.kinds, err = parseKinds(*kindF); err != nil {
		return err
	}
	if *readingF != "" {
		if flt.reading, err = parseReading(*readingF); err != nil {
			return err
		}
	}
	if *verdictF != "" {
		v, ok := core.ParseVerdict(*verdictF)
		if !ok || v == core.VerdictOpen {
			return fmt.Errorf("scoopflight: unknown verdict %q (want complete, partial, degraded, failed)", *verdictF)
		}
		flt.verdict, flt.byVerdict = v, true
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}

	kept := events[:0:0]
	for _, e := range events {
		if flt.keep(e) {
			kept = append(kept, e)
		}
	}

	if *printF != 0 {
		n := *printF
		if n < 0 || n > len(kept) {
			n = len(kept)
		}
		var buf []byte
		for _, e := range kept[:n] {
			buf = trace.AppendJSON(buf[:0], e)
			buf = append(buf, '\n')
			if _, err := out.Write(buf); err != nil {
				return err
			}
		}
	}

	if *windowF > 0 {
		return windowTable(out, kept, windowF.Milliseconds())
	}

	if *dwellF {
		return dwellTables(out, kept)
	}

	return summarise(out, events, kept)
}

// dwellTables renders one log2 histogram per reading-carrying kind of
// the lag from a reading's sample time to the event's own timestamp —
// how long readings dwell in the pipeline before being stored, lost or
// delivered.
func dwellTables(out io.Writer, kept []trace.Event) error {
	var hists [256]histogram.Log2
	for _, e := range kept {
		if !e.Kind.CarriesReading() {
			continue
		}
		hists[e.Kind].Record(e.T - e.SampleT)
	}
	any := false
	for _, k := range trace.Kinds() {
		h := &hists[k]
		if h.Total() == 0 {
			continue
		}
		any = true
		fmt.Fprintf(out, "%s dwell (ms):\n", k)
		h.WriteTable(out, "ms")
		fmt.Fprintln(out)
	}
	if !any {
		fmt.Fprintln(out, "no reading-carrying events kept")
	}
	return nil
}

// window holds the counts of one -window row.
type window struct {
	sent, recv, drops, bytes         int64 // frames sent, heard by addressees, dropped or purged; bytes sent
	sampled, stored, lost, delivered int64 // reading events
	reindexes                        int64 // index rebuilds finished
}

// windowTable renders one row per width-ms window of virtual time,
// from the window holding time 0 to the one holding the last kept
// event, each labelled with its exact start in seconds. Windows are
// [start, start+width): an event stamped on a boundary counts in the
// later one, and windows with no events still print. A packet-recv
// event does not say whether its frame was a broadcast, so recv over
// sent is no delivery ratio and no column computes one.
func windowTable(out io.Writer, kept []trace.Event, width int64) error {
	var ws []window
	for _, e := range kept {
		i := int(max(e.T, 0) / width)
		for len(ws) <= i {
			ws = append(ws, window{})
		}
		w := &ws[i]
		switch e.Kind {
		case trace.PacketSend:
			w.sent++
			w.bytes += int64(e.Size)
		case trace.PacketRecv:
			w.recv++
		case trace.PacketDrop, trace.PacketPurge:
			w.drops++
		case trace.ReadingSampled:
			w.sampled++
		case trace.ReadingStored:
			w.stored++
		case trace.ReadingLost:
			w.lost++
		case trace.ReadingDelivered:
			w.delivered++
		case trace.ReindexEnd:
			w.reindexes++
		}
	}
	if _, err := fmt.Fprintf(out, "%10s %7s %7s %7s %9s %7s %7s %7s %7s %8s\n",
		"window", "sent", "recv", "drops", "bytes", "sampled", "stored", "lost", "deliv", "reindex"); err != nil {
		return err
	}
	for i, w := range ws {
		start := strconv.FormatFloat(float64(int64(i)*width)/1000, 'f', -1, 64) + "s"
		if _, err := fmt.Fprintf(out, "%10s %7d %7d %7d %9d %7d %7d %7d %7d %8d\n",
			start, w.sent, w.recv, w.drops, w.bytes,
			w.sampled, w.stored, w.lost, w.delivered, w.reindexes); err != nil {
			return err
		}
	}
	return nil
}

// summarise prints the whole-run digest: span, per-kind counts and the
// drop breakdown, over the kept subset.
func summarise(out io.Writer, all, kept []trace.Event) error {
	fmt.Fprintf(out, "events: %d kept of %d\n", len(kept), len(all))
	if len(kept) == 0 {
		return nil
	}
	fmt.Fprintf(out, "span:   t=%d..%d (%.1fs)\n",
		kept[0].T, kept[len(kept)-1].T, float64(kept[len(kept)-1].T-kept[0].T)/1000)

	var byKind [256]int64
	var drops [metrics.NumDropCauses]int64
	var verdicts [256]int64
	var settled, usable int64
	var bytes int64
	for _, e := range kept {
		byKind[e.Kind]++
		switch e.Kind {
		case trace.PacketDrop, trace.PacketPurge:
			drops[e.Cause]++
		case trace.PacketSend:
			bytes += int64(e.Size)
		case trace.QueryVerdict:
			verdicts[e.Flag]++
			settled++
			if v := core.Verdict(e.Flag); v == core.VerdictComplete || v == core.VerdictDegraded {
				usable++
			}
		}
	}
	for _, k := range trace.Kinds() {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(out, "  %-18s %d\n", k, n)
		}
	}
	if settled > 0 {
		// Completeness: the fraction of settled queries with a usable
		// answer (complete, or degraded with an honest bound).
		fmt.Fprintf(out, "queries: completeness %.3f over %d settled (", float64(usable)/float64(settled), settled)
		for i, v := range core.AllVerdicts() {
			if i > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprintf(out, "%s=%d", v, verdicts[v])
		}
		fmt.Fprintln(out, ")")
	}
	if bytes > 0 {
		fmt.Fprintf(out, "sent:   %d bytes on air\n", bytes)
	}
	for c := metrics.DropCause(0); int(c) < metrics.NumDropCauses; c++ {
		if drops[c] > 0 {
			fmt.Fprintf(out, "drops:  %-8s %d\n", c, drops[c])
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
