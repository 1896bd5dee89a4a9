package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func committedGrid(t *testing.T, name string) Grid {
	t.Helper()
	g, err := ReadGrid(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// artifact runs the grid and returns the bytes WriteFile persists.
func artifact(t *testing.T, g Grid, opts Options) []byte {
	t.Helper()
	rep, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "artifact.json")
	if err := WriteFile(tmp, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCommittedArtifactsReproduce regenerates each of the thirteen
// committed artifacts from the grid file beside it and requires
// byte-for-byte equality — not "within tolerance". Three live in this
// package's testdata; the repo-root ones are the sweep gates and the
// paper's figures:
//
//   - sweep-ci-baseline (policy × size × loss × source), sweep-dynamics-
//     baseline (the churn/drift/reindex axes with the frozen-index
//     ablation cells) and sweep-agg-baseline (the query-mix axis through
//     the cost-based planner and in-network aggregation).
//   - fig-*.json are the paper's evaluation (PAPER.md §6) at its run
//     length, one trial a cell: Figure 3 on the testbed and in
//     simulation, Figures 4 and 5, the sample-interval and network-size
//     sweeps, and the churn/drift extension. scoopsweep prints each
//     figure's tables; figures_test.go reads them.
//   - identity-n65 holds the values generated BEFORE the scale-tier
//     hot-path overhaul (object pooling, dense node indices, flattened
//     link tables), so reproducing it proves no simulated behaviour has
//     changed at the paper's scale since — the determinism constraint of
//     DESIGN.md §2/§12. It was rewritten once since, only to add the
//     root-load and energy keys: decoded with those keys zeroed, the
//     rewritten file showed no Diff against its predecessor.
//   - identity-n250 pins the scale-only code paths the N=65 cells cannot
//     see (dense index rebuild batching, audible lists that spill).
//   - faults-baseline is the fault campaign (DESIGN.md §19); its
//     headline numbers are asserted by TestFaultCampaignBaseline.
//
// A build with -race skips the seven figures: their cells run the same
// worker pool the small grids and identity-n250 already exercise under
// the race detector, at many times the cost. CI holds the figures'
// bytes at GOMAXPROCS 1 and 8 in a step without -race.
//
// A failure is a (possibly intentional) protocol change: regenerate
// with
//
//	go run ./cmd/scoopsweep -out <artifact> <grid>
//
// in the same commit and say why in the message.
func TestCommittedArtifactsReproduce(t *testing.T) {
	const root = "../../testdata"
	for _, tc := range []struct {
		dir, artifact, grid string
		long, figure        bool
	}{
		{dir: root, artifact: "sweep-ci-baseline.json", grid: "sweep-ci.grid.json"},
		{dir: root, artifact: "sweep-dynamics-baseline.json", grid: "sweep-dynamics.grid.json"},
		{dir: root, artifact: "sweep-agg-baseline.json", grid: "sweep-agg.grid.json"},
		{dir: "testdata", artifact: "sweep-identity-n65.json", grid: "sweep-identity-n65.grid.json"},
		{dir: "testdata", artifact: "sweep-identity-n250.json", grid: "sweep-identity-n250.grid.json", long: true},
		{dir: "testdata", artifact: "sweep-faults-baseline.json", grid: "sweep-faults.grid.json"},
		{dir: root, artifact: "fig-3-testbed.json", grid: "fig-3-testbed.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-3.json", grid: "fig-3.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-4.json", grid: "fig-4.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-5.json", grid: "fig-5.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-sample.json", grid: "fig-sample.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-scaling.json", grid: "fig-scaling.grid.json", long: true, figure: true},
		{dir: root, artifact: "fig-churn.json", grid: "fig-churn.grid.json", long: true, figure: true},
	} {
		t.Run(tc.artifact, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("paper-scale or N=250 cells are too slow for -short")
			}
			if tc.figure && raceEnabled {
				t.Skip("the figures run no goroutine seam the small grids do not; CI holds their bytes without -race")
			}
			// In parallel, one grid's cells fill the cores another
			// grid's last cells leave idle.
			t.Parallel()
			want, err := os.ReadFile(filepath.Join(tc.dir, tc.artifact))
			if err != nil {
				t.Fatal(err)
			}
			g, err := ReadGrid(filepath.Join(tc.dir, tc.grid))
			if err != nil {
				t.Fatal(err)
			}
			if got := artifact(t, g, Options{}); !bytes.Equal(got, want) {
				t.Errorf("not byte-identical to %s (got %d bytes, want %d); "+
					"scoopsweep -check prints the differing cells",
					filepath.Join(tc.dir, tc.artifact), len(got), len(want))
			}
		})
	}
}

// TestRunRepeatable runs the identity grid twice in-process and
// requires equal artifacts — determinism independent of the committed
// file (catches map-iteration or scheduling nondeterminism even after
// an intentional regeneration).
func TestRunRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("identity test already covers one regeneration")
	}
	g := committedGrid(t, "sweep-identity-n65.grid.json")
	if !bytes.Equal(artifact(t, g, Options{Parallel: 1}), artifact(t, g, Options{Parallel: 4})) {
		t.Fatal("same grid, different artifacts across parallelism levels")
	}
}
