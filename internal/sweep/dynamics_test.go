package sweep

import (
	"slices"
	"strings"
	"testing"

	"scoop/internal/exp"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/trace"
)

// Dynamics key components appear only when non-default, so keys from
// pre-dynamics baseline artifacts keep matching their cells.
func TestCellKeyBackwardCompatible(t *testing.T) {
	static := Cell{Policy: policy.Scoop, Topology: "uniform", N: 16, Loss: 0, Source: "real"}
	if got, want := static.Key(), "scoop/uniform/n16/loss0/real"; got != want {
		t.Fatalf("static key = %q, want %q", got, want)
	}
	dyn := Cell{Policy: policy.Scoop, Topology: "uniform", N: 16, Loss: 0,
		Churn: 0.15, Drift: 0.4, NoReindex: true, Source: "real"}
	want := "scoop/uniform/n16/loss0/real/churn0.15/drift0.4/noreindex"
	if got := dyn.Key(); got != want {
		t.Fatalf("dynamic key = %q, want %q", got, want)
	}
}

// The frozen-index ablation only exists for Scoop; comparator
// policies have no adaptive loop, so their reindex-off cells, which
// would duplicate the normal cell under a misleading key, are omitted.
func TestCellsSkipComparatorNoReindex(t *testing.T) {
	g := Default()
	g.Policies = policy.Names()
	g.Sizes = []int{16}
	g.LossRates = []float64{0}
	g.Axes = []Axis{axis("noReindex", false, true)}
	cells := g.Cells()
	if len(cells) != 5 {
		t.Fatalf("cells = %d, want 5 (4 policies + scoop noreindex)", len(cells))
	}
	for _, c := range cells {
		if c.NoReindex && c.Policy != policy.Scoop {
			t.Fatalf("comparator noreindex cell generated: %s", c.Key())
		}
	}
}

func TestCellsExpandDynamicsAxes(t *testing.T) {
	g := Default()
	g.Policies = []policy.Name{policy.Scoop}
	g.Sizes = []int{16}
	g.LossRates = []float64{0}
	g.ChurnRates = []float64{0, 0.1}
	g.Axes = []Axis{axis("drift", 0, 0.4), axis("noReindex", false, true)}
	cells := g.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %q", c.Key())
		}
		seen[c.Key()] = true
	}
	// A perturbed, no-reindex cell builds a dynamics config.
	for _, c := range cells {
		cfg, err := g.config(c)
		if err != nil {
			t.Fatalf("cell %s: invalid config: %v", c.Key(), err)
		}
		if (c.Churn > 0 || c.Drift != 0) != !cfg.Dynamics.Empty() {
			t.Fatalf("cell %s: dynamics script presence mismatch", c.Key())
		}
		if cfg.DisableReindex != c.NoReindex {
			t.Fatalf("cell %s: reindex mapping wrong", c.Key())
		}
	}
}

// A one-cell churn+drift sweep runs end to end and reports transition
// metrics; rerunning reproduces the identical result.
func TestChurnCellRunsDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep cell")
	}
	g := Grid{
		Name:            "dyn",
		Policies:        []policy.Name{policy.Scoop},
		Sizes:           []int{16},
		ChurnRates:      []float64{0.15},
		Axes:            []Axis{axis("drift", 0.3)},
		Sources:         []string{"unique"},
		Duration:        14 * netsim.Minute,
		Warmup:          3 * netsim.Minute,
		ReindexInterval: 2 * netsim.Minute,
		Trials:          1,
		Seed:            5,
	}
	run := func() Report {
		rep, err := Run(g, Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Cells) != 1 {
		t.Fatalf("cells = %d", len(a.Cells))
	}
	c := a.Cells[0]
	if !strings.Contains(c.Key(), "churn0.15/drift0.3") {
		t.Fatalf("key = %q", c.Key())
	}
	if c.Msgs <= 0 || c.DataSuccess <= 0 {
		t.Fatalf("degenerate cell result: %+v", c)
	}
	if c.DeliveryDuring == 0 && c.DeliveryAfter == 0 {
		t.Fatal("transition metrics missing for a perturbed cell")
	}
	if c.ReindexBuilds == 0 {
		t.Fatal("reindex cost probe missing for a scoop cell")
	}
	// Wall-clock fields are the only legitimately nondeterministic ones.
	a.Cells[0].WallMS, b.Cells[0].WallMS = 0, 0
	a.Cells[0].ReindexWallMS, b.Cells[0].ReindexWallMS = 0, 0
	if a.Cells[0] != b.Cells[0] {
		t.Fatalf("sweep cell not deterministic:\n%+v\n%+v", a.Cells[0], b.Cells[0])
	}
}

// A unicast frame whose receiver is killed inside the frame's airtime is
// acked at the start of airtime and skipped at delivery, so the readings
// it carries are lost with the sender believing them delivered.
// Network.Kill reports such frames through OnPurge, and the trial records
// each reading in them as lost with cause killed. The cells checked are
// found by a scan, so a protocol change that moves the kills cannot leave
// the test holding cells that never reach the path: seeds 1, 2, … of the
// Figure 3 grid at 16/4 virtual minutes with half the nodes cycled each
// churn round (a mid-air kill is rare, and heavier churn finds one per
// policy in a few cells), each seed's cells in grid order, and for
// SCOOP, HASHSIM and BASE the first cell whose serial run records a
// killed reading-lost event. Each cell found must record one again under
// the invariant checker and run clean.
func TestChurnKillMidAirIsLossAccounted(t *testing.T) {
	defer func(was bool) { exp.ForceInvariants = was }(exp.ForceInvariants)
	const lastSeed = 12
	g := Grid{
		Policies:       []policy.Name{policy.Scoop, policy.Base, policy.HashSim},
		Topologies:     []string{"uniform"},
		Sizes:          []int{63},
		LossRates:      []float64{0, 0.2},
		ChurnRates:     []float64{0.5},
		Sources:        []string{"real", "gaussian", "unique", "random"},
		Duration:       16 * netsim.Minute,
		Warmup:         4 * netsim.Minute,
		SampleInterval: 15 * netsim.Second,
		QueryInterval:  15 * netsim.Second,
		Trials:         1,
	}
	// run runs one cell, under the invariant checker when checked, and
	// returns its killed reading-lost count.
	run := func(c Cell, checked bool) (killed killedCount) {
		exp.ForceInvariants = checked
		cfg, err := g.config(c)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = true
		cfg.TraceSinks = func(int) []trace.Sink { return []trace.Sink{&killed} }
		if _, err := exp.Run(cfg); err != nil {
			t.Errorf("seed %d %s: %v", g.Seed, c.Key(), err)
		}
		return killed
	}
	todo := slices.Clone(g.Policies)
	for g.Seed = 1; g.Seed <= lastSeed && len(todo) > 0; g.Seed++ {
		for _, c := range g.Cells() {
			if !slices.Contains(todo, c.Policy) {
				continue
			}
			if run(c, false) == 0 {
				continue
			}
			t.Logf("seed %d %s", g.Seed, c.Key())
			todo = slices.DeleteFunc(todo, func(p policy.Name) bool { return p == c.Policy })
			if run(c, true) == 0 {
				t.Errorf("seed %d %s: no reading-lost event with cause killed under the checker", g.Seed, c.Key())
			}
		}
	}
	for _, p := range todo {
		t.Errorf("%s: no churn cell of seeds 1–%d has a reading-lost event with cause killed", p, lastSeed)
	}
}

// killedCount is a trace sink counting readings lost with cause killed.
type killedCount int

func (k *killedCount) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.ReadingLost && e.Cause == metrics.DropKilled {
			*k++
		}
	})
}

func (k *killedCount) Close() error { return nil }
