package metrics

import (
	"fmt"
	"strings"
	"testing"
)

func TestCountersSendReceive(t *testing.T) {
	m := NewCounters()
	m.CountSend(1, Data, 10)
	m.CountSend(1, Data, 10)
	m.CountSend(2, Query, 10)
	m.CountSend(0, Query, 10)
	m.CountSend(0, Beacon, 10)
	m.CountReceive(0, Data, 10)
	m.CountReceive(0, Beacon, 10)
	m.CountReceive(1, Data, 10)
	if b := m.Snapshot(); b.Data != 2 || b.Query != 2 || b.Reply != 0 || b.Beacon != 1 {
		t.Fatalf("sent counts wrong: %+v", b)
	}
	if m.RootSent() != 1 || m.RootReceived() != 1 {
		t.Fatalf("root sent %d, received %d; want 1 and 1 (beacons excluded)", m.RootSent(), m.RootReceived())
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

// Drops are tallied by cause from trace events into a table of
// NumDropCauses entries indexed by the cause: every named cause has a
// slot and the first value past the table has no name.
func TestDrops(t *testing.T) {
	var by [NumDropCauses]int64
	for _, name := range []string{"collision", "collision", "queue"} {
		c, ok := ParseDropCause(name)
		if !ok {
			t.Fatalf("ParseDropCause(%q) failed", name)
		}
		by[c]++
	}
	if want := [NumDropCauses]int64{DropCollision: 2, DropQueue: 1}; by != want {
		t.Fatalf("drops by cause = %v, want %v", by, want)
	}
	for c := DropCause(0); int(c) < NumDropCauses; c++ {
		if strings.HasPrefix(c.String(), "cause(") {
			t.Fatalf("cause %d inside the table has no name", c)
		}
	}
	if got := DropCause(NumDropCauses).String(); got != fmt.Sprintf("cause(%d)", NumDropCauses) {
		t.Fatalf("cause past the table is named %q", got)
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
	for c := Class(0); c < numClasses; c++ {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("nonsense"); ok {
		t.Fatal("parsed a bogus class")
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
	if numClasses != 7 {
		t.Fatalf("%d classes, want 7", numClasses)
	}
}
