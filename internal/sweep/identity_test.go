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

// TestCommittedArtifactsReproduce regenerates each committed artifact
// of this package from the grid file beside it and requires
// byte-for-byte equality — not "within tolerance". The repo-root
// artifacts (testdata/sweep-{ci,dynamics,agg}-baseline.json) are held
// the same way by CI through `scoopsweep -check`.
//
//   - identity-n65 was generated BEFORE the scale-tier hot-path overhaul
//     (object pooling, dense node indices, flattened link tables), so
//     reproducing it proves no simulated behaviour has changed at the
//     paper's scale since — the determinism constraint of DESIGN.md
//     §2/§12.
//   - identity-n250 pins the scale-only code paths the N=65 cells cannot
//     see (dense index rebuild batching, region partitioning). It was
//     written by the 4-region engine and is checked on both, so the
//     committed bytes are a standing proof that the parallel event loop
//     reproduces the serial artifact: a failure on one engine only is a
//     parallel-determinism bug.
//   - faults-baseline is the fault campaign (DESIGN.md §19); its
//     headline numbers are asserted by TestFaultCampaignBaseline.
//
// A failure on every engine is a (possibly intentional) protocol
// change: regenerate with
//
//	go run ./cmd/scoopsweep [-regions 4] -out <artifact> <grid>
//
// in the same commit and say why in the message.
func TestCommittedArtifactsReproduce(t *testing.T) {
	for _, tc := range []struct {
		artifact, grid string
		regions        []int
		long           bool
	}{
		{artifact: "sweep-identity-n65.json", grid: "sweep-identity-n65.grid.json", regions: []int{0}},
		{artifact: "sweep-identity-n250.json", grid: "sweep-identity-n250.grid.json", regions: []int{0, 4}, long: true},
		{artifact: "sweep-faults-baseline.json", grid: "sweep-faults.grid.json", regions: []int{0}},
	} {
		t.Run(tc.artifact, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("N=250 cell is too slow for -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.artifact))
			if err != nil {
				t.Fatal(err)
			}
			g := committedGrid(t, tc.grid)
			for _, regions := range tc.regions {
				g.Regions = regions
				if got := artifact(t, g, Options{}); !bytes.Equal(got, want) {
					t.Errorf("regions=%d: not byte-identical to testdata/%s (got %d bytes, want %d); "+
						"scoopsweep -check prints the differing cells",
						regions, tc.artifact, len(got), len(want))
				}
			}
		})
	}
}

// TestRunRegionsIdentical pins the sweep-level guarantee behind the
// Grid.Regions knob: the artifact is a pure function of the grid —
// running every cell on the 4-region parallel engine must reproduce
// the serial bytes exactly.
func TestRunRegionsIdentical(t *testing.T) {
	g := committedGrid(t, "sweep-identity-n65.grid.json")
	serial := artifact(t, g, Options{Parallel: 1})
	g.Regions = 4
	if !bytes.Equal(serial, artifact(t, g, Options{Parallel: 2})) {
		t.Fatal("same grid, different artifacts between the serial and 4-region engines")
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
