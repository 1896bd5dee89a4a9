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
// must clear a mote's state in place rather than allocate it again; and
// a grid N = 250 whose deeper tree makes most traffic relayed traffic
// (summaries, replies and data hops through the dedup tables), all at
// seed 1. Heap events dispatched and frames put on the air are
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
	for _, tc := range []struct {
		name       string
		cfg        Config
		wantEvents int64
		wantTx     int64
		// Measured mallocs/vs, in the comment, with the ceiling's history.
		maxMallocsPerVS float64
	}{
		// 5.33 (5.43 before data frames were deduplicated, 7.50 with
		// Trickle items, chunk store and assembler in maps and dedup
		// spills in slices of their own, 9.98 with the TTL in the
		// payloads and dedup rows growing from empty, 22.1 before the
		// payload free lists, 66.5 before the send ring). Data dedup
		// took the counts from 217 296 events and 47 612 frames.
		{"uniform63", Default(), 208685, 44900, 6.0},
		// 5.61 (5.71 before data dedup, 11.79 when a reboot allocated
		// the mote's state again; 264 052 events and 56 492 frames
		// before data dedup).
		{"uniform63churn", churn, 253906, 52313, 6.3},
		// 42.23 (42.20 before data dedup, 52.77 with the maps and spill
		// slices, 76.56 with the TTL in the payloads and dedup rows
		// growing from empty; 290 720 events and 94 247 frames before
		// data dedup).
		{"grid250", deep, 283304, 91278, 46.4},
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
			if mallocs > tc.maxMallocsPerVS {
				t.Errorf("%.2f mallocs per virtual second, ceiling %.1f", mallocs, tc.maxMallocsPerVS)
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
// line"). On the parent commit this test fails with 1 096 600 B and
// 2 099 objects: two 4.9 KB math/rand tables and their two Rands a node.
func TestSetupFootprint(t *testing.T) {
	const (
		// Measured 393 400 B in 1 420 objects, 24 KB of it the nodes'
		// inline data-dedup caches (DESIGN.md §12). The ceilings are the
		// measurement plus 5 % of the bytes and plus 40 objects, fewer
		// than one a node.
		maxBytes   = 413_000
		maxMallocs = 1_460
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
// allocates — per-node and per-link state, no N×N array (DESIGN.md §12).
// Measured 1 320 136 B against 5 578 880 B (×4.23). On the parent
// commit this test fails with 2 231 416 B against 21 024 680 B (×9.42):
// the topology's Quality matrix and the basestation's dense index.Graph,
// 8 MB each at N = 1000.
func TestSetupFootprintLinearInN(t *testing.T) {
	cfg := Default()
	cfg.Topology = "grid"
	cfg.N = 250
	small, _ := setupFootprint(t, cfg)
	cfg.N = 1000
	large, _ := setupFootprint(t, cfg)
	t.Logf("grid set-up allocates %d B at N = 250, %d B at N = 1000", small, large)
	if ratio := float64(large) / float64(small); ratio > 5 {
		t.Fatalf("grid set-up allocates %d B at N = 250 and %d B at N = 1000: ×%.2f, want ≤ ×5 (linear in N)",
			small, large, ratio)
	}
}
