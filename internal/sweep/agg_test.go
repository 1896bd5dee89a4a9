package sweep

import (
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// The agg-mix key component appears only when non-zero, so keys from
// pre-agg baseline artifacts keep matching their cells.
func TestCellKeyAggMixBackwardCompatible(t *testing.T) {
	static := Cell{Policy: policy.Scoop, Topology: "uniform", N: 16, Loss: 0, Source: "real"}
	if got, want := static.Key(), "scoop/uniform/n16/loss0/real"; got != want {
		t.Fatalf("static key = %q, want %q", got, want)
	}
	mixed := Cell{Policy: policy.Scoop, Topology: "uniform", N: 16, Loss: 0,
		AggMix: 0.5, Source: "real"}
	want := "scoop/uniform/n16/loss0/real/agg0.5"
	if got := mixed.Key(); got != want {
		t.Fatalf("mixed key = %q, want %q", got, want)
	}
}

// Aggregate mixes only make sense for the Scoop policy: the comparators
// have no query planner and BASE answers at the basestation for free,
// so the cross-product omits their mixed cells.
func TestCellsSkipComparatorAggMix(t *testing.T) {
	g := Default()
	g.Policies = []policy.Name{policy.Scoop, policy.Base, policy.HashSim}
	g.Sizes = []int{16}
	g.LossRates = []float64{0}
	g.Axes = []Axis{axis("aggMix", 0, 0.5)}
	cells := g.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4 (scoop×2 mixes + base + hashsim)", len(cells))
	}
	for _, c := range cells {
		if c.AggMix > 0 && c.Policy != policy.Scoop {
			t.Fatalf("comparator agg cell generated: %s", c.Key())
		}
		if _, err := g.config(c); err != nil {
			t.Fatalf("cell %s invalid: %v", c.Key(), err)
		}
	}
}

// An agg-mix cell records aggregate answer quality and planner
// decisions into the artifact.
func TestAggMixCellEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell")
	}
	g := Default()
	g.Policies = []policy.Name{policy.Scoop}
	g.Sizes = []int{12}
	g.LossRates = []float64{0}
	g.Axes = []Axis{axis("aggMix", 0.5)}
	g.Duration = 10 * netsim.Minute
	g.Warmup = 3 * netsim.Minute
	rep, err := Run(g, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.AggMix != 0.5 {
		t.Fatalf("aggMix = %v", c.AggMix)
	}
	if c.AggAnswered <= 0 || c.AggAnswered > 1 {
		t.Fatalf("aggAnswered = %v", c.AggAnswered)
	}
	if c.PlanSummary+c.PlanAgg+c.PlanTuple+c.PlanFlood == 0 {
		t.Fatal("no planner decisions recorded")
	}
}
