package exp

import (
	"runtime"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
)

// TestWorkPerVirtualSecond holds the simulator's work on fixed cells to
// a budget: the paper's SCOOP/REAL, uniform N = 63, 40 virtual minutes;
// the same cell under the fig3 sweep's churn-0.15 script, whose reboots
// must clear a mote's state in place rather than allocate it again; a
// grid N = 250 whose deeper tree makes most traffic relayed traffic
// (summaries, replies and data hops through the dedup tables); and the
// read side, uniform N = 100 at loss 0.2 with a query every 3 s, half
// of them aggregates, under an 8 s deadline and 2 retries — bench's
// query-heavy100 without its fault script, cut to 10 + 5 minutes — all
// at seed 1. Heap events dispatched and frames put on the air are
// machine-independent and repeat exactly, so they are held at zero
// tolerance: a change that moves either has changed what the protocol
// or the engine does, and must say so by editing the number. Heap
// objects allocated repeat to within a few, so they are held under a
// ceiling, measured + 10 % (DESIGN.md §12, "A frame is allocated once"
// and "A payload is borrowed, not kept").
func TestWorkPerVirtualSecond(t *testing.T) {
	if testing.Short() {
		t.Skip("a full paper-scale cell")
	}
	defer func(on bool) { ForceInvariants = on }(ForceInvariants)
	ForceInvariants = false // the checker's ledger is the harness's garbage, not the simulator's

	churn := Default()
	script := dynamics.Standard(churn.N, churn.Warmup, churn.Duration, 0.15, 0, churn.Seed+101)
	churn.Dynamics = &script
	deep := Default()
	deep.Topology, deep.N = "grid", 250
	deep.Duration, deep.Warmup = 10*netsim.Minute, 5*netsim.Minute
	reads := Default()
	reads.N, reads.LinkLoss = 100, 0.2
	reads.Duration, reads.Warmup = 10*netsim.Minute, 5*netsim.Minute
	reads.QueryInterval, reads.AggRatio, reads.AggErrBudget = 3*netsim.Second, 0.5, 0.05
	reads.QueryDeadline, reads.QueryRetryMax = 8*netsim.Second, 2
	for _, tc := range []struct {
		name       string
		cfg        Config
		wantEvents int64
		wantTx     int64
		// Measured mallocs/vs, in the comment, with the ceiling's history.
		maxMallocsPerVS float64
	}{
		// 0.34 (0.36 while the base's kept summaries, query records and
		// packets came from slabs of 1 to 8 KB and a settled query's
		// heard words went to the collector, 0.39 while send rings past 8 slots, delivery receiver
		// lists and summary dedup spills past 1 KB were made on their
		// own, 0.47 while a node's query tables were dense by query
		// ID, its reply dedup kept 64-bit keys and audible-list spills
		// were made on their own, 1.44 while every summary, reply
		// array, partial and query record was an object of its own,
		// 1.69 as recorded before that, 3.71 while summaries were
		// three objects and dedup rows, chunk sets, assembled indices
		// and first-use buffers were allocated per node, 5.33 with a
		// free list per sender and set-up allocating per node, 5.43
		// before data frames were deduplicated, 7.50 with Trickle
		// items, chunk store and assembler in maps and dedup spills in
		// slices of their own, 9.98 with the TTL in the payloads and
		// dedup rows growing from empty, 22.1 before the payload free
		// lists, 66.5 before the send ring). Data dedup took the counts
		// from 217 296 events and 47 612 frames.
		{"uniform63", Default(), 208685, 44900, 0.38},
		// 0.49 (0.52 with the base's slabs, 0.54 with solo send rings, receiver lists and summary
		// dedup spills, 0.60 with dense query tables and 64-bit reply keys,
		// 1.49 with a summary, reply array, partial and query
		// record per message, 1.74 as recorded before that, 3.86 with
		// per-node arrays and three-object summaries,
		// 5.61 with per-sender free lists and per-node set-up,
		// 5.71 before data dedup, 11.79 when a reboot allocated the
		// mote's state again; 264 052 events and 56 492 frames before
		// data dedup).
		{"uniform63churn", churn, 253906, 52313, 0.54},
		// 1.10 (1.16 with the base's slabs, 1.48 with solo send rings, receiver lists, summary
		// dedup spills and query bitmaps regrown 1.5× at a time, 2.45
		// with dense query tables and 64-bit reply keys,
		// 3.87 with a summary, reply array, partial and query
		// record per message, 3.92 as recorded before that, 18.18 with
		// per-node arrays and three-object summaries,
		// 42.23 with per-sender free lists, retired Trickle items
		// kept and per-node set-up, 42.20 before data dedup, 52.77 with
		// the maps and spill slices, 76.56 with the TTL in the payloads
		// and dedup rows growing from empty; 290 720 events and 94 247
		// frames before data dedup).
		{"grid250", deep, 283304, 91278, 1.21},
		// 1.07 (1.16 with the base's slabs, 1.47 with solo send rings, receiver lists and summary
		// dedup spills, 2.28 with dense query tables, combine buffers and flush
		// sequence numbers and 64-bit reply and partial keys, 6.88
		// with a summary, reply array, partial, combine buffer, query
		// packet and query record per message and the contributor and
		// retry bitmaps in arrays of their own).
		{"reads100", reads, 546388, 115225, 1.18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Serial on purpose: runtime.MemStats.Mallocs is process-wide.
			cfg := tc.cfg
			cfg.Trials = 1
			cfg.Profile = true // counts dispatched events; allocation-free (prof.TestEnabledHotPathZeroAlloc)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			vs := float64(cfg.Duration) / float64(netsim.Second)
			events := res.PerTrial[0].Prof.Events
			tx := int64(res.Breakdown.Total() + res.Breakdown.Beacon)
			mallocs := float64(after.Mallocs-before.Mallocs) / vs
			t.Logf("%.0f vs: %d events (%.2f/vs), %d transmissions (%.2f/vs), %.2f mallocs/vs",
				vs, events, float64(events)/vs, tx, float64(tx)/vs, mallocs)
			if events != tc.wantEvents {
				t.Errorf("dispatched %d heap events, want exactly %d", events, tc.wantEvents)
			}
			if tx != tc.wantTx {
				t.Errorf("%d transmissions, want exactly %d", tx, tc.wantTx)
			}
			// The race detector's runtime allocates beside the
			// simulator's (grid250 reads 20.6 under -race), so the
			// ceiling holds only in a normal build.
			if mallocs > tc.maxMallocsPerVS && !raceEnabled {
				t.Errorf("%.2f mallocs per virtual second, ceiling %.2f", mallocs, tc.maxMallocsPerVS)
			}
		})
	}
}

// TestSetupFootprint holds what a trial costs before its first event:
// the default cell cut to one virtual millisecond with no warm-up, so
// topology, network, nodes, source and harness are built and nothing
// runs. Every sweep cell and each of the suite's small networks pays
// this. Bytes and objects repeat to within a few; the smallest of three
// is held under a ceiling (DESIGN.md §12, "A draw stays on the node's
// line" and "Set-up allocates per network"). When a node's set-up was
// its own objects this test failed with 393 400 B in 1 420 objects;
// before that with 1 096 600 B and 2 099 objects: two 4.9 KB math/rand
// tables and their two Rands a node.
func TestSetupFootprint(t *testing.T) {
	const (
		// Measured 384 352 B in 107 objects, 24 KB of it the nodes'
		// inline data-dedup caches (DESIGN.md §12); 383 744 B in 110
		// while each node looked up its network's three payload free
		// lists instead of one shared value holding them and the blocks.
		// The ceilings are 383 744 B plus 5 % and 110 objects plus 40.
		maxBytes   = 403_000
		maxMallocs = 150
	)
	cfg := Default()
	bytes, mallocs := setupFootprint(t, cfg)
	t.Logf("N = %d set-up: %d B in %d objects", cfg.N, bytes, mallocs)
	if bytes > maxBytes {
		t.Errorf("set-up allocates %d B, ceiling %d", bytes, maxBytes)
	}
	if mallocs > maxMallocs {
		t.Errorf("set-up allocates %d objects, ceiling %d", mallocs, maxMallocs)
	}
}

// setupFootprint returns what cfg's trial allocates before its first
// event — cut to one virtual millisecond with no warm-up — in bytes and
// objects, the smallest of three.
func setupFootprint(t *testing.T, cfg Config) (bytes, mallocs uint64) {
	t.Helper()
	defer func(on bool) { ForceInvariants = on }(ForceInvariants)
	ForceInvariants = false

	cfg.Trials = 1
	cfg.Duration = netsim.Millisecond
	cfg.Warmup = 0
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}

// TestSetupFootprintLinearInN: on the grid, where degree is bounded,
// quadrupling the nodes may at most quintuple what a trial's set-up
// allocates — per-node and per-link state, no N×N array (DESIGN.md §12)
// — and adds at most 40 objects to it: per-node state is carved from
// one slab per type, and what grows by doubling (the event queue, the
// timer-task blocks) allocates about log₂ 4 = 2 times more. Measured
// 1 387 200 B in 121 objects against 5 795 368 B in 146 (×4.18, +25).
// When each node's state was its own objects it failed with 5 336
// objects against 21 108; and with 2 231 416 B against 21 024 680 B
// (×9.42) when the topology held a Quality matrix and the basestation a
// dense index.Graph, 8 MB each at N = 1000.
func TestSetupFootprintLinearInN(t *testing.T) {
	const maxExtraObjects = 40
	cfg := Default()
	cfg.Topology = "grid"
	cfg.N = 250
	small, smallObjs := setupFootprint(t, cfg)
	cfg.N = 1000
	large, largeObjs := setupFootprint(t, cfg)
	t.Logf("grid set-up allocates %d B in %d objects at N = 250, %d B in %d objects at N = 1000",
		small, smallObjs, large, largeObjs)
	if ratio := float64(large) / float64(small); ratio > 5 {
		t.Errorf("grid set-up allocates %d B at N = 250 and %d B at N = 1000: ×%.2f, want ≤ ×5 (linear in N)",
			small, large, ratio)
	}
	if largeObjs > smallObjs+maxExtraObjects {
		t.Errorf("grid set-up allocates %d objects at N = 250 and %d at N = 1000, want at most %d more (not per node)",
			smallObjs, largeObjs, maxExtraObjects)
	}
}
