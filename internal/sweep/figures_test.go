package sweep

import (
	"path/filepath"
	"testing"
)

// figure reads a committed figure artifact, which
// TestCommittedArtifactsReproduce holds to a fresh run of its grid, and
// indexes its cells by key.
func figure(t *testing.T, name string) map[string]CellResult {
	t.Helper()
	rep, err := ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]CellResult, len(rep.Cells))
	for _, c := range rep.Cells {
		cells[c.Key()] = c
	}
	return cells
}

// Figure 3 (left): UNIQUE, perfect locality, is SCOOP's best case, so
// scoop/unique is the cheapest cell on the testbed.
func TestFigure3LeftArtifact(t *testing.T) {
	cells := figure(t, "fig-3-testbed.json")
	const best = "scoop/testbed/n63/loss0/unique"
	unique, ok := cells[best]
	if !ok || len(cells) != 9 {
		t.Fatalf("fig-3-testbed has %d cells, and %s: %v", len(cells), best, ok)
	}
	for key, c := range cells {
		if key != best && unique.Msgs >= c.Msgs {
			t.Errorf("%s (%.0f msgs) not below %s (%.0f)", best, unique.Msgs, key, c.Msgs)
		}
	}
}

// The loss-rate table: every testbed cell ran, and SCOOP's stored,
// retrieved and owner-hit shares are rates the run measured.
func TestLossRatesArtifact(t *testing.T) {
	for key, c := range figure(t, "fig-3-testbed.json") {
		if c.Msgs <= 0 || c.DataSuccess <= 0 || c.DataSuccess > 1 {
			t.Errorf("%s: %.0f msgs, stored %.3f", key, c.Msgs, c.DataSuccess)
		}
	}
	scoop := figure(t, "fig-3-testbed.json")["scoop/testbed/n63/loss0/real"]
	for name, rate := range map[string]float64{"querySuccess": scoop.QuerySuccess, "ownerHit": scoop.OwnerHit} {
		if rate <= 0 || rate > 1 {
			t.Errorf("scoop/testbed/real %s = %.3f, want a rate in (0, 1]", name, rate)
		}
	}
}

// The root-load table, REAL source: BASE's root transmits almost
// nothing but receives everything; SCOOP's root sends mapping and query
// traffic; LOCAL's root sends its query floods and receives far more
// replies than it sends.
func TestRootSkewShape(t *testing.T) {
	cells := figure(t, "fig-3.json")
	scoop := cells["scoop/uniform/n63/loss0/real"]
	base := cells["base/uniform/n63/loss0/real"]
	local := cells["local/uniform/n63/loss0/real"]
	if base.RootRecv == 0 || base.RootSent > base.RootRecv/5 {
		t.Errorf("BASE root sent %.0f vs received %.0f; should be receive-dominated", base.RootSent, base.RootRecv)
	}
	if scoop.RootSent == 0 {
		t.Error("SCOOP root sent nothing")
	}
	if local.RootSent == 0 || local.RootSent > local.RootRecv/5 {
		t.Errorf("LOCAL root sent %.0f vs received %.0f; should send its floods and be reply-dominated",
			local.RootSent, local.RootRecv)
	}
}

// The energy table: every Figure 3 cell accounts its average node's and
// its root's energy.
func TestEnergyTableArtifact(t *testing.T) {
	for key, c := range figure(t, "fig-3.json") {
		if c.RootJ <= 0 || c.NodeJ <= 0 || c.RootDays <= 0 || c.NodeDays <= 0 {
			t.Errorf("%s: missing energy accounting: node %.3f J %.0f d, root %.3f J %.0f d",
				key, c.NodeJ, c.NodeDays, c.RootJ, c.RootDays)
		}
	}
}

// byPolicy reads a committed figure artifact's message totals per
// policy, in cell order, which is the order of the figure's axis.
func byPolicy(t *testing.T, name string) map[string][]float64 {
	t.Helper()
	rep, err := ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]float64{}
	for _, c := range rep.Cells {
		out[string(c.Policy)] = append(out[string(c.Policy)], c.Msgs)
	}
	return out
}

// Figure 4: SCOOP's cost rises with the fraction of nodes queried, from
// below LOCAL's to above it, while BASE, which sends no queries, costs
// the same at every fraction. Every cell runs at the grid's shared
// seed, so a BASE total that moves is seed noise leaking into the
// figure.
func TestFigure4Artifact(t *testing.T) {
	msgs := byPolicy(t, "fig-4.json")
	scoop, local, base := msgs["scoop"], msgs["local"], msgs["base"]
	if len(scoop) != 7 || len(local) != 7 || len(base) != 7 {
		t.Fatalf("fig-4 has %d/%d/%d scoop/local/base cells, want 7 each", len(scoop), len(local), len(base))
	}
	for i := 1; i < len(scoop); i++ {
		if scoop[i] <= scoop[i-1] {
			t.Errorf("SCOOP at fraction step %d: %.0f msgs, not above %.0f", i, scoop[i], scoop[i-1])
		}
		if base[i] != base[0] {
			t.Errorf("BASE at fraction step %d: %.0f msgs, want %.0f as at every fraction", i, base[i], base[0])
		}
	}
	if scoop[0] >= local[0] || scoop[6] <= local[6] {
		t.Errorf("SCOOP %.0f → %.0f should start below LOCAL (%.0f) and end above it (%.0f)",
			scoop[0], scoop[6], local[0], local[6])
	}
}

// Figure 5: the longer the query interval, the cheaper querying gets:
// LOCAL's floods fall fastest, SCOOP's cost falls too, and BASE, which
// never queries, is flat. LOCAL, which stores without routing, crosses
// SCOOP: dearer at the shortest interval, cheapest at the longest.
func TestFigure5Artifact(t *testing.T) {
	msgs := byPolicy(t, "fig-5.json")
	scoop, local, base := msgs["scoop"], msgs["local"], msgs["base"]
	if len(scoop) != 5 || len(local) != 5 || len(base) != 5 {
		t.Fatalf("fig-5 has %d/%d/%d scoop/local/base cells, want 5 each", len(scoop), len(local), len(base))
	}
	for i := 1; i < len(scoop); i++ {
		if scoop[i] >= scoop[i-1] || local[i] >= local[i-1] {
			t.Errorf("interval step %d: SCOOP %.0f → %.0f, LOCAL %.0f → %.0f; both should fall",
				i, scoop[i-1], scoop[i], local[i-1], local[i])
		}
		if base[i] != base[0] {
			t.Errorf("BASE at interval step %d: %.0f msgs, want %.0f as at every interval", i, base[i], base[0])
		}
	}
	if scoop[0] >= local[0] || local[4] >= scoop[4] || local[4] >= base[4] {
		t.Errorf("LOCAL %.0f → %.0f should start above SCOOP (%.0f) and end below SCOOP (%.0f) and BASE (%.0f)",
			local[0], local[4], scoop[0], scoop[4], base[4])
	}
}
