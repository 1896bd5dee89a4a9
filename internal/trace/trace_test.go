package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"scoop/internal/metrics"
)

// fixedClock returns a clock that ticks forward one ms per call.
func fixedClock() func() int64 {
	t := int64(-1)
	return func() int64 { t++; return t }
}

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
		if k.String() == "invalid" {
			t.Fatalf("kind %d renders as invalid", k)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Fatal("parsed a bogus kind")
	}
	if Kind(200).String() != "invalid" {
		t.Fatal("out-of-range kind must render invalid")
	}
}

// collect keeps every event handed to it, in emission order.
type collect struct{ evs []Event }

func (c *collect) Record(b *Block) { b.Each(func(e Event) { c.evs = append(c.evs, e) }) }
func (c *collect) Close() error    { return nil }

func TestRecorderStampsAndFansOut(t *testing.T) {
	a, b := &collect{}, &collect{}
	rec := New(fixedClock(), a, b)
	rec.Emit(Event{Kind: PacketSend, Node: 3, Peer: 1, Class: metrics.Data, Size: 30})
	rec.Emit(Event{Kind: NodeDown, Node: 7})
	if len(a.evs) != 0 {
		t.Fatal("a sink saw events before their block was handed over")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*collect{a, b} {
		evs := c.evs
		if len(evs) != 2 {
			t.Fatalf("sink has %d events", len(evs))
		}
		if evs[0].T != 0 || evs[1].T != 1 {
			t.Fatalf("timestamps = %d,%d; want recorder-stamped 0,1", evs[0].T, evs[1].T)
		}
		if evs[0].Kind != PacketSend || evs[1].Kind != NodeDown {
			t.Fatal("event order wrong")
		}
	}
}

// blockLog records the length of every block handed to it.
type blockLog struct{ lens []int }

func (l *blockLog) Record(b *Block) { l.lens = append(l.lens, b.n) }
func (l *blockLog) Close() error    { return nil }

// Sinks get whole blocks only, the moment one fills, and the partial
// tail at Close; Emit and Packet fill the same blocks. A block is full
// at BlockSize events, or sooner at blockWide events with wide fields.
// A recorder kept to some kinds drops every other emission before it
// reaches a block.
func TestRecorderOnlyKeepsNamedKinds(t *testing.T) {
	kept := &collect{}
	rec := New(fixedClock(), kept)
	rec.Only(ReadingLost)
	rec.Packet(PacketSend, 3, 1, metrics.Data, 30)
	rec.Emit(Event{Kind: NodeDown, Node: 7})
	rec.Emit(Event{Kind: ReadingLost, Node: 2, Cause: metrics.DropKilled, Producer: 5, SampleT: 9})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs := kept.evs
	if len(evs) != 1 || evs[0].Kind != ReadingLost {
		t.Fatalf("kept %v, want the one reading-lost event", evs)
	}
}

func TestRecorderHandsOverWholeBlocks(t *testing.T) {
	var l blockLog
	rec := New(fixedClock(), &l)
	for i := 0; i < 2*BlockSize+5; i++ {
		if i%8 == 0 {
			rec.Emit(Event{Kind: ReadingSampled, Node: 1, Producer: 1, Value: int64(i)})
		} else {
			rec.Packet(PacketSnoop, 2, 1, metrics.Beacon, 24)
		}
		if want := (i + 1) / BlockSize; len(l.lens) != want {
			t.Fatalf("after %d events: %d blocks handed over, want %d", i+1, len(l.lens), want)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{BlockSize, BlockSize, 5}; !slices.Equal(l.lens, want) {
		t.Fatalf("block lengths %v, want %v", l.lens, want)
	}
	if err := rec.Close(); err != nil || len(l.lens) != 3 {
		t.Fatalf("a second Close handed over %d more blocks (err %v)", len(l.lens)-3, err)
	}

	l.lens = nil
	rec = New(fixedClock(), &l)
	for i := 0; i < 2*blockWide+1; i++ {
		rec.Emit(Event{Kind: QueryRetry, ID: 1, Value: 2, Aux: 3})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{blockWide, blockWide, 1}; !slices.Equal(l.lens, want) {
		t.Fatalf("wide-only block lengths %v, want %v", l.lens, want)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var rec *Recorder
	rec.Emit(Event{Kind: PacketSend, Node: 1}) // must not panic
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNilRecorderEmitAllocsZero(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Emit(Event{Kind: PacketSend, Node: 9, Peer: 2, Class: metrics.Reply, Size: 44})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v per op, want 0", allocs)
	}
}

// roundTripEvents set only fields inside their kind's mask, as emission
// sites do; FuzzParseLine seeds its corpus from them.
var roundTripEvents = []Event{
	{Kind: PacketSend, Node: 3, Peer: 0, Class: metrics.Summary, Size: 46},
	{Kind: PacketDrop, Node: 7, Peer: 3, Class: metrics.Data, Cause: metrics.DropCollision, Size: 30},
	{Kind: ReadingStored, Node: 9, Flag: StoreOwner, Producer: 4, SampleT: 615000, Value: -12},
	{Kind: QueryPlanned, Flag: 2, ID: 11, Value: 880, Aux: 3},
	{Kind: ReindexEnd, Size: 100},
	{Kind: NodeRestart, Node: 44},
}

func TestJSONLRoundTrip(t *testing.T) {
	events := roundTripEvents
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	rec := New(fixedClock(), sink)
	for _, e := range events {
		rec.Emit(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i, e := range events {
		e.T = int64(i) // recorder stamped
		// Fields outside the kind's mask are not encoded; the decode
		// must still match because emission sites only set masked fields.
		if got[i] != e {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], e)
		}
	}
}

func TestJSONLEncodingIsStable(t *testing.T) {
	e := Event{T: 615001, Kind: PacketDrop, Node: 7, Peer: 3,
		Class: metrics.Data, Cause: metrics.DropRetries, Size: 30}
	want := `{"t":615001,"kind":"packet-drop","node":7,"peer":3,"class":"data","cause":"retries","size":30}`
	if got := string(AppendJSON(nil, e)); got != want {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, want)
	}
	// ReindexEnd carries the value-domain size alone.
	e2 := Event{T: 5, Kind: ReindexEnd, Size: 100}
	want2 := `{"t":5,"kind":"reindex-end","node":0,"size":100}`
	if got := string(AppendJSON(nil, e2)); got != want2 {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, want2)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"no-such-kind","node":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"packet-send","node":0,"class":"bogus"}` + "\n")); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Blank lines are fine.
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank stream: %v %v", evs, err)
	}
}
