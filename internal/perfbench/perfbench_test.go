package perfbench

import (
	"flag"
	"testing"

	"scoop/internal/core"
	"scoop/internal/netsim"
)

// TestBenchesRunnable executes each registered bench once, so a broken
// bench fails tests rather than the benchmark run: one iteration
// (-test.benchtime=1x, restored after) proves it runs, as bench/'s
// isolated metrics call them, without calibrating each to a second.
// Skipped under -short (the 1000-node benches are still seconds of work).
func TestBenchesRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every hot-path bench")
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	for _, be := range Benches() {
		be := be
		t.Run(be.Name, func(t *testing.T) {
			r := testing.Benchmark(be.Fn)
			if r.N < 1 {
				t.Fatal("bench did not run")
			}
		})
	}
}

// TestReplyPathZeroAllocs holds the §19 reliability layer's per-reply
// cost contract (DESIGN.md §12): a duplicate reply with the layer off,
// and a late reply to a settled, evicted query with it on, both go
// through Base.Receive without allocating.
func TestReplyPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture func(testing.TB) (*core.Base, *netsim.Packet)
	}{
		{"rel-off", replyRelOff},
		{"rel-settled", replyRelSettled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, pkt := tc.fixture(t)
			if allocs := testing.AllocsPerRun(1000, func() { base.Receive(pkt) }); allocs != 0 {
				t.Fatalf("Base.Receive allocates %v per reply, want 0", allocs)
			}
		})
	}
}
