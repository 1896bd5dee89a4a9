package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersSendReceive(t *testing.T) {
	m := NewCounters()
	m.CountSend(1, Data, 10)
	m.CountSend(1, Data, 10)
	m.CountSend(2, Query, 10)
	m.CountReceive(0, Data, 10)
	if m.Sent(Data) != 2 || m.Sent(Query) != 1 || m.Sent(Reply) != 0 {
		t.Fatalf("sent counts wrong: %d %d", m.Sent(Data), m.Sent(Query))
	}
	if m.Received(Data) != 1 {
		t.Fatalf("received = %d", m.Received(Data))
	}
	if m.SentBy(1, Data) != 2 || m.SentBy(2, Query) != 1 || m.SentBy(3, Data) != 0 {
		t.Fatal("per-node sends wrong")
	}
	if m.ReceivedBy(0, Data) != 1 || m.ReceivedBy(1, Data) != 0 {
		t.Fatal("per-node receives wrong")
	}
}

func TestTotalExcludesBeacons(t *testing.T) {
	m := NewCounters()
	m.CountSend(1, Data, 10)
	m.CountSend(1, Beacon, 10)
	m.CountSend(1, Beacon, 10)
	b := m.Snapshot()
	if b.Total() != 1 {
		t.Fatalf("total = %v, want beacons excluded", b.Total())
	}
	if b.Beacon != 2 {
		t.Fatalf("beacons = %v", b.Beacon)
	}
}

func TestDrops(t *testing.T) {
	m := NewCounters()
	m.CountDrop(DropCollision)
	m.CountDrop(DropCollision)
	m.CountDrop(DropQueue)
	if m.Drops(DropCollision) != 2 || m.Drops(DropQueue) != 1 || m.Drops(DropRetries) != 0 {
		t.Fatal("drop counts wrong")
	}
	if want := [numDropCauses]int64{DropCollision: 2, DropQueue: 1}; m.dropped != want {
		t.Fatalf("drops by cause = %v, want %v", m.dropped, want)
	}
}

func TestDropCauseStrings(t *testing.T) {
	for c := DropCause(0); c < numDropCauses; c++ {
		got, ok := ParseDropCause(c.String())
		if !ok || got != c {
			t.Fatalf("ParseDropCause(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseDropCause("nonsense"); ok {
		t.Fatal("parsed a bogus cause")
	}
	if DropCause(99).String() == "" {
		t.Fatal("unknown cause has empty name")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("nonsense"); ok {
		t.Fatal("parsed a bogus class")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.CountSend(1, Data, 10)
	b.CountSend(1, Data, 10)
	b.CountSend(2, Summary, 10)
	b.CountReceive(0, Summary, 10)
	b.CountDrop(DropQueue)
	a.Merge(b)
	if a.Sent(Data) != 2 || a.Sent(Summary) != 1 {
		t.Fatal("merged sends wrong")
	}
	if a.SentBy(1, Data) != 2 || a.SentBy(2, Summary) != 1 {
		t.Fatal("merged per-node sends wrong")
	}
	if a.Received(Summary) != 1 || a.Drops(DropQueue) != 1 {
		t.Fatal("merged receives/drops wrong")
	}
}

// TestMergeBytesAndDrops covers the byte-tally and per-cause merge
// paths the sweep engine relies on when folding per-trial counters.
func TestMergeBytesAndDrops(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.CountSend(1, Data, 100)
	a.CountSnoop(2, 40)
	a.CountDrop(DropRetries)
	b.CountSend(3, Reply, 60)
	b.CountReceive(1, Reply, 60)
	b.CountSnoop(2, 10)
	b.CountDrop(DropRetries)
	b.CountDrop(DropTTL)
	a.Merge(b)
	if a.SentBytes() != 160 || a.SentBytesClass(Data) != 100 || a.SentBytesClass(Reply) != 60 {
		t.Fatalf("merged sent bytes: total=%d data=%d reply=%d",
			a.SentBytes(), a.SentBytesClass(Data), a.SentBytesClass(Reply))
	}
	if a.ReceivedBytes() != 60 || a.ReceivedBytesBy(1) != 60 {
		t.Fatalf("merged recv bytes: %d / %d", a.ReceivedBytes(), a.ReceivedBytesBy(1))
	}
	if a.SnoopedBytes() != 50 || a.SnoopedBytesBy(2) != 50 {
		t.Fatalf("merged snoop bytes: %d / %d", a.SnoopedBytes(), a.SnoopedBytesBy(2))
	}
	if a.SentBytesBy(1) != 100 || a.SentBytesBy(3) != 60 {
		t.Fatalf("merged per-node sent bytes: %d / %d", a.SentBytesBy(1), a.SentBytesBy(3))
	}
	if a.Drops(DropRetries) != 2 || a.Drops(DropTTL) != 1 {
		t.Fatalf("merged drops: retries=%d ttl=%d", a.Drops(DropRetries), a.Drops(DropTTL))
	}
	if want := [numDropCauses]int64{DropRetries: 2, DropTTL: 1}; a.dropped != want {
		t.Fatalf("merged drops by cause = %v, want %v", a.dropped, want)
	}
}

// TestMergeGrowsDense verifies Merge grows the destination's per-node
// tables when the source saw higher node IDs than the destination.
func TestMergeGrowsDense(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.CountSend(1, Data, 10)
	b.CountSend(40, Query, 25)
	b.CountReceive(41, Query, 25)
	b.CountSnoop(42, 25)
	a.Merge(b)
	if a.SentBy(40, Query) != 1 || a.ReceivedBy(41, Query) != 1 {
		t.Fatal("merge did not grow per-node count tables")
	}
	if a.SentBytesBy(40) != 25 || a.ReceivedBytesBy(41) != 25 || a.SnoopedBytesBy(42) != 25 {
		t.Fatal("merge did not grow per-node byte tables")
	}
}

func TestSnapshotAndBreakdown(t *testing.T) {
	m := NewCounters()
	for i := 0; i < 3; i++ {
		m.CountSend(1, Data, 10)
	}
	m.CountSend(1, Reply, 10)
	m.CountSend(1, Beacon, 10)
	b := m.Snapshot()
	if b.Data != 3 || b.Reply != 1 || b.Beacon != 1 {
		t.Fatalf("snapshot = %+v", b)
	}
	if b.Total() != 4 {
		t.Fatalf("breakdown total = %f", b.Total())
	}
	sum := b.Add(b)
	if sum.Data != 6 || sum.Total() != 8 {
		t.Fatalf("add = %+v", sum)
	}
	half := b.Scale(0.5)
	if half.Data != 1.5 {
		t.Fatalf("scale = %+v", half)
	}
	if !strings.Contains(b.String(), "data=3") {
		t.Fatalf("string = %q", b.String())
	}
}

// TestBreakdownAddScale pins every field of the element-wise Add and
// Scale used when the sweep engine averages per-trial breakdowns.
func TestBreakdownAddScale(t *testing.T) {
	a := Breakdown{Data: 1, Summary: 2, Mapping: 3, Query: 4, Reply: 5, AggReply: 6, Beacon: 7}
	b := Breakdown{Data: 10, Summary: 20, Mapping: 30, Query: 40, Reply: 50, AggReply: 60, Beacon: 70}
	sum := a.Add(b)
	want := Breakdown{Data: 11, Summary: 22, Mapping: 33, Query: 44, Reply: 55, AggReply: 66, Beacon: 77}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	if sum.Total() != 11+22+33+44+55+66 {
		t.Fatalf("Add total = %f (beacons must stay excluded)", sum.Total())
	}
	scaled := want.Scale(0.5)
	wantScaled := Breakdown{Data: 5.5, Summary: 11, Mapping: 16.5, Query: 22, Reply: 27.5, AggReply: 33, Beacon: 38.5}
	if scaled != wantScaled {
		t.Fatalf("Scale = %+v, want %+v", scaled, wantScaled)
	}
	if (Breakdown{}).Add(Breakdown{}) != (Breakdown{}) {
		t.Fatal("zero Add not zero")
	}
}

func TestClassStrings(t *testing.T) {
	names := map[Class]string{
		Data: "data", Summary: "summary", Mapping: "mapping",
		Query: "query", Reply: "reply", AggReply: "aggreply", Beacon: "beacon",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%v.String() = %q", uint8(c), c.String())
		}
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class has empty name")
	}
	if len(Classes()) != 7 {
		t.Fatalf("classes = %v", Classes())
	}
}

// Property: Merge is equivalent to counting everything on one counter.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(events []uint16) bool {
		single, a, b := NewCounters(), NewCounters(), NewCounters()
		for i, e := range events {
			node := uint16(e % 8)
			class := Class(e % uint16(numClasses))
			single.CountSend(node, class, 10)
			if i%2 == 0 {
				a.CountSend(node, class, 10)
			} else {
				b.CountSend(node, class, 10)
			}
		}
		a.Merge(b)
		for c := Class(0); c < numClasses; c++ {
			if single.Sent(c) != a.Sent(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
