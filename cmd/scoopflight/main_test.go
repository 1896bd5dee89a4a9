package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/trace"
)

// writeTrace builds a small JSONL trace fixture on disk, recording
// each event at its own time.
func writeTrace(t *testing.T, events []trace.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	rec := trace.New(func() int64 { return now }, trace.NewJSONL(f))
	for _, e := range events {
		now = e.T
		rec.Emit(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixture(t *testing.T) string {
	return writeTrace(t, []trace.Event{
		{T: 100, Kind: trace.PacketSend, Node: 1, Peer: 2, Class: metrics.Data, Size: 30},
		{T: 110, Kind: trace.PacketRecv, Node: 2, Peer: 1, Class: metrics.Data, Size: 30},
		{T: 120, Kind: trace.PacketDrop, Node: 3, Peer: 1, Class: metrics.Query, Cause: metrics.DropRetries, Size: 24},
		{T: 200, Kind: trace.ReadingSampled, Node: 4, Producer: 4, SampleT: 200, Value: 55},
		{T: 260, Kind: trace.ReadingStored, Node: 7, Flag: trace.StoreOwner, Producer: 4, SampleT: 200, Value: 55},
		{T: 70_000, Kind: trace.PacketSend, Node: 2, Peer: 1, Class: metrics.Reply, Size: 40},
	})
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestSummary(t *testing.T) {
	out := runCLI(t, fixture(t))
	for _, want := range []string{"events: 6 kept of 6", "packet-send", "reading-stored", "drops:  retries  1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestNodeFilter(t *testing.T) {
	out := runCLI(t, "-node", "2", fixture(t))
	if !strings.Contains(out, "events: 2 kept of 6") {
		t.Fatalf("node filter wrong:\n%s", out)
	}
}

func TestClassFilter(t *testing.T) {
	out := runCLI(t, "-class", "data", fixture(t))
	if !strings.Contains(out, "events: 2 kept of 6") {
		t.Fatalf("class filter wrong:\n%s", out)
	}
	// Class filtering excludes non-packet kinds even though their zero
	// Class field decodes as data.
	if strings.Contains(out, "reading-sampled") {
		t.Fatalf("class filter leaked a reading event:\n%s", out)
	}
}

func TestKindFilter(t *testing.T) {
	out := runCLI(t, "-kind", "packet-drop", fixture(t))
	if !strings.Contains(out, "events: 1 kept of 6") {
		t.Fatalf("kind filter wrong:\n%s", out)
	}
}

func TestReadingFilter(t *testing.T) {
	out := runCLI(t, "-reading", "4@200", "-print", "-1", fixture(t))
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 printed JSONL events + the summary block.
	if len(lines) < 3 || !strings.Contains(lines[0], `"kind":"reading-sampled"`) ||
		!strings.Contains(lines[1], `"kind":"reading-stored"`) {
		t.Fatalf("reading filter output wrong:\n%s", out)
	}
	if !strings.Contains(out, "events: 2 kept of 6") {
		t.Fatalf("reading filter count wrong:\n%s", out)
	}

	// Without @sampletime every sample of the producer passes, and
	// only reading-carrying events do.
	path := writeTrace(t, []trace.Event{
		{T: 1500, Kind: trace.ReadingSampled, Node: 5, Producer: 5, SampleT: 1500},
		{T: 3000, Kind: trace.ReadingSampled, Node: 5, Producer: 5, SampleT: 3000},
		{T: 3100, Kind: trace.ReadingLost, Node: 2, Cause: metrics.DropTTL, Producer: 6, SampleT: 1500},
		{T: 3200, Kind: trace.PacketSend, Node: 5, Class: metrics.Data, Size: 30},
	})
	if out := runCLI(t, "-reading", "5", path); !strings.Contains(out, "events: 2 kept of 4") {
		t.Fatalf("wildcard reading filter wrong:\n%s", out)
	}
}

// TestWindowTable pins the -window table: one row per window from the
// one holding time 0 to the one holding the last kept event, empty
// windows included, an event on a boundary in the later window and a
// negative timestamp in the first.
func TestWindowTable(t *testing.T) {
	const header = "    window    sent    recv   drops     bytes sampled  stored    lost   deliv  reindex\n"
	for _, tc := range []struct {
		name   string
		events []trace.Event // nil: the shared fixture
		args   []string
		rows   string
	}{
		{"fixture", nil, []string{"-window", "60s"},
			"        0s       1       1       1        30       1       1       0       0        0\n" +
				"       60s       1       0       0        40       0       0       0       0        0\n"},
		{"no-events-kept", nil, []string{"-window", "60s", "-kind", "query-issued"}, ""},
		{"buckets", []trace.Event{
			{T: 10, Kind: trace.PacketSend, Class: metrics.Data, Size: 30},
			{T: 900, Kind: trace.PacketRecv, Class: metrics.Data, Size: 30},
			{T: 2500, Kind: trace.PacketSend, Class: metrics.Query, Size: 24},
			{T: 2600, Kind: trace.PacketDrop, Class: metrics.Query, Cause: metrics.DropCollision},
		}, []string{"-window", "1s"},
			"        0s       1       1       0        30       0       0       0       0        0\n" +
				"        1s       0       0       0         0       0       0       0       0        0\n" +
				"        2s       1       0       1        24       0       0       0       0        0\n"},
		// Rows carry their exact start, fractional seconds included.
		{"fractional-width", []trace.Event{
			{T: 10, Kind: trace.PacketRecv},
			{T: 1600, Kind: trace.PacketRecv},
			{T: 3100, Kind: trace.PacketRecv},
		}, []string{"-window", "1500ms"},
			"        0s       0       1       0         0       0       0       0       0        0\n" +
				"      1.5s       0       1       0         0       0       0       0       0        0\n" +
				"        3s       0       1       0         0       0       0       0       0        0\n"},
		{"boundary", []trace.Event{
			{T: -5, Kind: trace.PacketRecv},
			{T: 999, Kind: trace.PacketRecv},
			{T: 1000, Kind: trace.PacketRecv},
		}, []string{"-window", "1s"},
			"        0s       0       2       0         0       0       0       0       0        0\n" +
				"        1s       0       1       0         0       0       0       0       0        0\n"},
		{"empty-windows", []trace.Event{
			{T: 0, Kind: trace.PacketPurge, Cause: metrics.DropReboot},
			{T: 5200, Kind: trace.PacketRecv},
		}, []string{"-window", "1s"},
			"        0s       0       0       1         0       0       0       0       0        0\n" +
				"        1s       0       0       0         0       0       0       0       0        0\n" +
				"        2s       0       0       0         0       0       0       0       0        0\n" +
				"        3s       0       0       0         0       0       0       0       0        0\n" +
				"        4s       0       0       0         0       0       0       0       0        0\n" +
				"        5s       0       1       0         0       0       0       0       0        0\n"},
		{"reading-and-reindex-counters", []trace.Event{
			{T: 1, Kind: trace.ReadingSampled, Producer: 3, SampleT: 1},
			{T: 2, Kind: trace.ReadingStored, Producer: 3, SampleT: 1},
			{T: 3, Kind: trace.ReadingLost, Producer: 4, SampleT: 2},
			{T: 4, Kind: trace.ReadingDelivered, Producer: 3, SampleT: 1},
			{T: 5, Kind: trace.QueryIssued, ID: 1},
			{T: 6, Kind: trace.QueryAnswered, ID: 1, Value: 2},
			{T: 7, Kind: trace.ReindexEnd, Size: 100},
			{T: 8, Kind: trace.ReindexEnd, Size: 100},
		}, []string{"-window", "60s"},
			"        0s       0       0       0         0       1       1       1       1        2\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := fixture(t)
			if tc.events != nil {
				path = writeTrace(t, tc.events)
			}
			if got, want := runCLI(t, append(tc.args, path)...), header+tc.rows; got != want {
				t.Fatalf("got\n%swant\n%s", got, want)
			}
		})
	}
}

func TestDwellTables(t *testing.T) {
	path := writeTrace(t, []trace.Event{
		{T: 200, Kind: trace.ReadingSampled, Node: 4, Producer: 4, SampleT: 200, Value: 55},
		{T: 260, Kind: trace.ReadingStored, Node: 7, Flag: trace.StoreOwner, Producer: 4, SampleT: 200, Value: 55},
		{T: 1500, Kind: trace.ReadingStored, Node: 7, Flag: trace.StoreOwner, Producer: 4, SampleT: 500, Value: 56},
		{T: 900, Kind: trace.PacketSend, Node: 2, Peer: 1, Class: metrics.Data, Size: 40}, // no reading: ignored
	})
	out := runCLI(t, "-dwell", path)
	if !strings.Contains(out, "reading-stored dwell (ms):") ||
		!strings.Contains(out, "reading-sampled dwell (ms):") {
		t.Fatalf("missing per-kind dwell sections:\n%s", out)
	}
	// The stored lags are 60 and 1000 ms; the histogram footer carries
	// the exact max and sample count.
	if !strings.Contains(out, "samples=2 max=1000ms") {
		t.Fatalf("stored dwell stats wrong:\n%s", out)
	}
	// Filters compose: restricting to one kind drops the other table.
	out = runCLI(t, "-dwell", "-kind", "reading-stored", path)
	if strings.Contains(out, "reading-sampled dwell") {
		t.Fatalf("-kind filter ignored by -dwell:\n%s", out)
	}

	// A trace with no reading-carrying events says so instead of
	// printing nothing.
	empty := writeTrace(t, []trace.Event{
		{T: 100, Kind: trace.PacketSend, Node: 1, Peer: 2, Class: metrics.Data, Size: 30},
	})
	if out := runCLI(t, "-dwell", empty); !strings.Contains(out, "no reading-carrying events") {
		t.Fatalf("empty dwell output:\n%s", out)
	}
}

// TestBadFlags: each malformed flag fails before any output, even on a
// trace that would otherwise print.
func TestBadFlags(t *testing.T) {
	path := fixture(t)
	for _, args := range [][]string{
		{"-class", "nope", path},
		{"-kind", "nope", path},
		{"-reading", "abc", path},
		{"-window", "-5s", path},
		{"-window", "1500us", path}, // the trace clock ticks in whole milliseconds
		{"-node", "70000", path},
		{"-node", "-2", path},
		{"-print", "-5", path},
		{"-window", "60s", "-dwell", path},
		{},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil || sb.Len() != 0 {
			t.Errorf("run(%v) accepted bad input (err %v, output %q)", args, err, sb.String())
		}
	}
}
