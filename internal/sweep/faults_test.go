package sweep

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestFaultCampaignBaseline asserts the campaign's headline acceptance
// numbers on the committed artifact (which
// TestCommittedArtifactsReproduce holds byte-equal to a fresh run of
// testdata/sweep-faults.grid.json: every scripted fault scenario plus
// the fault-free reference × reliability layer off/on, at 40% ambient
// link loss over a mixed tuple/aggregate workload): under 40% loss plus
// the regional blackout, the reliability layer lifts completeness to
// >= 0.95 over the no-retry baseline at no more than 2x the fault-free
// query-class bytes.
func TestFaultCampaignBaseline(t *testing.T) {
	rep, err := ReadFile(filepath.Join("testdata", "sweep-faults-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]CellResult{}
	for _, c := range rep.Cells {
		byKey[c.Key()] = c
	}
	cell := func(key string) CellResult {
		c, ok := byKey[key]
		if !ok {
			t.Fatalf("campaign artifact has no cell %q", key)
		}
		return c
	}
	lifted := cell("scoop/uniform/n20/loss0.4/real/agg0.5/faults-blackout/retry")
	bare := cell("scoop/uniform/n20/loss0.4/real/agg0.5/faults-blackout")
	cleanRef := cell("scoop/uniform/n20/loss0.4/real/agg0.5/retry")
	if lifted.Completeness < 0.95 {
		t.Errorf("blackout+retry completeness %.3f, want >= 0.95", lifted.Completeness)
	}
	if lifted.Retries == 0 {
		t.Error("blackout+retry cell recorded no retries")
	}
	if bare.Retries != 0 || bare.Completeness != 0 {
		t.Errorf("no-retry cell should have no reliability state, got %d retries, completeness %.3f",
			bare.Retries, bare.Completeness)
	}
	if cleanRef.Query <= 0 {
		t.Fatal("fault-free reference sent no query bytes")
	}
	if ratio := lifted.Query / cleanRef.Query; ratio > 2 {
		t.Errorf("blackout+retry query bytes %.0f are %.2fx the fault-free %.0f, budget is 2x",
			lifted.Query, ratio, cleanRef.Query)
	}
}

// TestFaultCampaignRegionsIdentical holds the fault campaign to the
// same cross-engine bar as every other artifact: the 4-region parallel
// engine must reproduce the serial campaign bytes exactly, fault
// injection and all.
func TestFaultCampaignRegionsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign twice is too slow for -short")
	}
	g := committedGrid(t, "sweep-faults.grid.json")
	serial := artifact(t, g, Options{Parallel: 2})
	g.Regions = 4
	if !bytes.Equal(serial, artifact(t, g, Options{Parallel: 2})) {
		t.Fatal("same fault campaign, different artifacts between the serial and 4-region engines")
	}
}
