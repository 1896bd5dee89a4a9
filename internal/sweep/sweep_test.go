package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// tinyGrid is a fast 8-cell grid for unit tests: short runs over small
// networks, two policies × two sizes × two loss rates.
func tinyGrid() Grid {
	g := Default()
	g.Name = "tiny"
	g.Policies = []policy.Name{policy.Scoop, policy.Base}
	g.Sizes = []int{12, 16}
	g.LossRates = []float64{0, 0.15}
	g.Duration = 6 * netsim.Minute
	g.Warmup = 2 * netsim.Minute
	g.Seed = 7
	return g
}

// axis is an Axis over Go values, each spelt as JSON encodes it.
func axis(field string, values ...any) Axis {
	return shorthand(field, values, nil)
}

func TestCellsCrossProduct(t *testing.T) {
	g := Default()
	cells := g.Cells()
	want := len(g.Policies) * len(g.Topologies) * len(g.Sizes) * len(g.LossRates) * len(g.Sources)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if want < 24 {
		t.Fatalf("default grid has %d cells; the policy×N×loss grid must cover >=24", want)
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate cell %s", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestEmptyAxesGetDefaults(t *testing.T) {
	cells := Grid{}.Cells()
	if len(cells) != 1 {
		t.Fatalf("zero grid expands to %d cells, want 1", len(cells))
	}
	if cells[0].Policy != policy.Scoop || cells[0].N != 63 {
		t.Fatalf("unexpected default cell: %+v", cells[0])
	}
}

func TestCellSeedsDistinctAndStable(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := CellSeed(1, i)
		if s < 0 {
			t.Fatalf("cell %d: negative seed %d", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("cells %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if CellSeed(1, 0) == CellSeed(2, 0) {
		t.Fatal("different base seeds map cell 0 to the same seed")
	}
	if CellSeed(1, 5) != CellSeed(1, 5) {
		t.Fatal("CellSeed is not a pure function")
	}
}

// Under SharedSeed every cell runs at the base seed, and the result
// records it; without it, each cell runs at its own CellSeed.
func TestSharedSeed(t *testing.T) {
	g := tinyGrid()
	for _, shared := range []bool{false, true} {
		g.SharedSeed = shared
		cells, cfgs, err := g.plan()
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			want := CellSeed(g.Seed, cells[i].Index)
			if shared {
				want = g.Seed
			}
			if cfg.Seed != want {
				t.Errorf("sharedSeed %v: cell %s runs at seed %d, want %d", shared, cells[i].Key(), cfg.Seed, want)
			}
		}
	}
}

// The acceptance property: the artifact bytes depend only on the grid
// and base seed, never on worker count or scheduling order.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	g := tinyGrid()
	serial, err := Run(g, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.MarshalIndent(serial, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(parallel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("serial and 8-way sweeps differ:\n%s\n----\n%s", a, b)
	}
	for _, c := range serial.Cells {
		if c.Msgs <= 0 {
			t.Fatalf("cell %s ran but moved no messages", c.Key())
		}
		if c.WallMS <= 0 {
			t.Fatalf("cell %s captured no timing", c.Key())
		}
	}
}

// Loss is not a no-op: degraded links must change the simulated
// outcome (more retries, fewer deliveries).
func TestLossAxisAffectsResults(t *testing.T) {
	g := tinyGrid()
	g.Policies = []policy.Name{policy.Scoop}
	g.Sizes = []int{16}
	g.LossRates = []float64{0, 0.3}
	rep, err := Run(g, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, lossy := rep.Cells[0], rep.Cells[1]
	if clean.Loss != 0 || lossy.Loss != 0.3 {
		t.Fatalf("unexpected cell order: %+v / %+v", clean, lossy)
	}
	// Degraded links force retransmissions (more messages for the
	// same workload) and lose query replies. Per-trial data-delivery
	// noise makes DataSuccess unreliable at this tiny scale, so the
	// robust signals are asserted instead.
	if lossy.Msgs <= clean.Msgs {
		t.Fatalf("30%% link loss did not raise message cost: %.0f -> %.0f",
			clean.Msgs, lossy.Msgs)
	}
	if lossy.QuerySuccess >= clean.QuerySuccess {
		t.Fatalf("query success did not fall under loss: %.2f -> %.2f",
			clean.QuerySuccess, lossy.QuerySuccess)
	}
}

// Every malformed axis value fails in Run's up-front pass: the error
// names the cell, and no cell has run.
func TestRunRejectsBadCells(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Grid)
		want   string // cell key prefix or fragment the error must carry
	}{
		{"source", func(g *Grid) { g.Sources = []string{"no-such-source"} }, "/no-such-source)"},
		{"loss", func(g *Grid) { g.LossRates = []float64{0, 1.5} }, "/loss1.5/"},
		{"size", func(g *Grid) { g.Sizes = []int{12, 1100} }, "/n1100/"},
		{"churn", func(g *Grid) { g.ChurnRates = []float64{1.5} }, "/churn1.5)"},
		{"drift", func(g *Grid) { g.Axes = []Axis{axis("drift", -2)} }, "/drift-2)"},
		{"fault", func(g *Grid) { g.Axes = []Axis{axis("faults", "", "earthquake")} }, "/faults-earthquake)"},
		{"node-pct", func(g *Grid) { g.Axes = []Axis{axis("nodePct", 1.5)} }, "/nodes1.5)"},
		{"table", func(g *Grid) {
			g.Tables = []Table{{Title: "by size", Rows: []string{"n"}, Values: []string{"msgs"}}}
		}, "share a row and column"},
		{"policy", func(g *Grid) { g.Policies = []policy.Name{policy.Scoop, "scop"} }, "(scop/"},
		{"topology", func(g *Grid) { g.Topologies = []string{"torus"} }, "/torus/"},
		{"warmup", func(g *Grid) { g.Warmup = g.Duration }, "warmup"},
	} {
		g := tinyGrid()
		tc.mutate(&g)
		ran := 0
		_, err := Run(g, Options{Parallel: 1, Progress: func(CellResult) { ran++ }})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if ran != 0 {
			t.Errorf("%s: %d cells ran before the rejection", tc.name, ran)
		}
	}
}

// An artifact reads back as written, interval cells included: a
// netsim.Time is written as the duration text a grid file spells it in.
func TestWriteReadRoundTrip(t *testing.T) {
	g := Grid{LossRates: []float64{0.1}, Axes: []Axis{
		axis("queryInterval", "5s", "1m30s"),
		axis("sampleInterval", "2m"),
	}}
	rep := Report{Name: "rt", Seed: 3}
	for _, c := range g.Cells() {
		rep.Cells = append(rep.Cells, CellResult{Cell: c, Seed: 42, Msgs: 100, DataSuccess: 0.9})
	}
	if len(rep.Cells) != 2 || rep.Cells[1].QueryInterval != 90*netsim.Second ||
		rep.Cells[1].SampleInterval != 2*netsim.Minute {
		t.Fatalf("interval axes expand to %+v", rep.Cells)
	}
	path := filepath.Join(t.TempDir(), "sweep-rt.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rep.Name || got.Seed != rep.Seed || !slices.Equal(got.Cells, rep.Cells) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// Every committed artifact's bytes hang on this encoding: CellResult's
// keys, their order, and which ones omitempty drops. The literal was
// captured from the commit before Cell was embedded (when CellResult
// declared the twelve identity fields itself); the node-query fraction
// and the two intervals joined it with the figure grids, and omitempty
// keeps them out of every older artifact; the root-load and energy
// metrics joined every artifact at the same time.
func TestCellResultJSONGolden(t *testing.T) {
	r := CellResult{
		Cell: Cell{Index: 1, Policy: "scoop", Topology: "grid", N: 65, Loss: 0.1,
			Churn: 0.15, Drift: 0.3, NoReindex: true, AggMix: 0.5,
			Faults: "blackout", Retry: true, NodePct: 0.25, QueryInterval: 5 * netsim.Second,
			SampleInterval: 2 * netsim.Minute, Source: "real"},
		Seed: 42,
		Msgs: 1000.5, Data: 2, Summary: 3, Mapping: 4, Query: 5, Reply: 6, AggReply: 7, Beacon: 8,
		DataSuccess: 0.9, QuerySuccess: 0.8, OwnerHit: 0.7,
		RootSent: 26, RootRecv: 27, NodeJ: 28.5, NodeDays: 29, RootJ: 30.5, RootDays: 31, CommsShare: 0.32,
		AggAnswered: 0.6, AggErr: 0.05, PlanSummary: 9, PlanAgg: 10, PlanTuple: 11, PlanFlood: 12,
		Completeness: 0.95, VerdictComplete: 13, VerdictPartial: 14, VerdictDegraded: 15,
		VerdictFailed: 16, Retries: 17, AggFirstMS: 18.5,
		Perturbed: true, ReconvS: 19.5, DeliveryDuring: 0.4, DeliveryAfter: 0.85,
		WallMS: 20, ReindexBuilds: 21, ReindexValues: 22, ReindexRecomputed: 23,
		ReindexSPT: 24, ReindexWallMS: 25,
	}
	const want = `{"index":1,"policy":"scoop","topology":"grid","n":65,"loss":0.1,"churn":0.15,"drift":0.3,"noReindex":true,"aggMix":0.5,"faults":"blackout","retry":true,"nodePct":0.25,"queryInterval":"5s","sampleInterval":"2m","source":"real","seed":42,"msgs":1000.5,"data":2,"summary":3,"mapping":4,"query":5,"reply":6,"aggReply":7,"beacon":8,"dataSuccess":0.9,"querySuccess":0.8,"ownerHit":0.7,"rootSent":26,"rootRecv":27,"nodeJ":28.5,"nodeDays":29,"rootJ":30.5,"rootDays":31,"commsShare":0.32,"aggAnswered":0.6,"aggErr":0.05,"planSummary":9,"planAgg":10,"planTuple":11,"planFlood":12,"completeness":0.95,"verdictComplete":13,"verdictPartial":14,"verdictDegraded":15,"verdictFailed":16,"retries":17,"aggFirstMS":18.5,"perturbed":true,"reconvS":19.5,"deliveryDuring":0.4,"deliveryAfter":0.85}`
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("CellResult encoding moved:\n got %s\nwant %s", got, want)
	}
	// A field added later must join the literal above, or omitempty
	// would hide it from this test.
	var zero func(v reflect.Value, path string)
	zero = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			if f := v.Field(i); f.Kind() == reflect.Struct {
				zero(f, name+".")
			} else if f.IsZero() {
				t.Errorf("%s is zero in the golden value", name)
			}
		}
	}
	zero(reflect.ValueOf(r), "")
}

// The cell order fixes every cell's index and, through CellSeed, its
// seed, so an artifact reproduces only while Cells enumerates exactly
// as it did when the artifact was written. Both expectations were
// captured from the commit whose Cells skipped the analytical HASH under
// churn and drift, run with hashsim in its place, an enumeration that
// skip never touched.
func TestCellsOrderGolden(t *testing.T) {
	lines := func(g Grid) []string {
		var out []string
		for _, c := range g.Cells() {
			out = append(out, fmt.Sprintf("%d %s", c.Index, c.Key()))
		}
		return out
	}
	// Three values on the policy axis and every axis with a Scoop-only
	// value.
	small := Grid{
		Policies:   []policy.Name{policy.Scoop, policy.HashSim, policy.Base},
		Topologies: []string{"grid"},
		Sizes:      []int{16},
		LossRates:  []float64{0},
		ChurnRates: []float64{0, 0.15},
		Axes: []Axis{
			axis("noReindex", false, true),
			axis("aggMix", 0, 0.5),
			axis("faults", "", "blackout"),
			axis("retry", false, true),
		},
		Sources: []string{"unique"},
	}
	want := []string{
		"0 scoop/grid/n16/loss0/unique",
		"1 scoop/grid/n16/loss0/unique/retry",
		"2 scoop/grid/n16/loss0/unique/faults-blackout",
		"3 scoop/grid/n16/loss0/unique/faults-blackout/retry",
		"4 scoop/grid/n16/loss0/unique/agg0.5",
		"5 scoop/grid/n16/loss0/unique/agg0.5/retry",
		"6 scoop/grid/n16/loss0/unique/agg0.5/faults-blackout",
		"7 scoop/grid/n16/loss0/unique/agg0.5/faults-blackout/retry",
		"8 scoop/grid/n16/loss0/unique/noreindex",
		"9 scoop/grid/n16/loss0/unique/noreindex/retry",
		"10 scoop/grid/n16/loss0/unique/noreindex/faults-blackout",
		"11 scoop/grid/n16/loss0/unique/noreindex/faults-blackout/retry",
		"12 scoop/grid/n16/loss0/unique/noreindex/agg0.5",
		"13 scoop/grid/n16/loss0/unique/noreindex/agg0.5/retry",
		"14 scoop/grid/n16/loss0/unique/noreindex/agg0.5/faults-blackout",
		"15 scoop/grid/n16/loss0/unique/noreindex/agg0.5/faults-blackout/retry",
		"16 scoop/grid/n16/loss0/unique/churn0.15",
		"17 scoop/grid/n16/loss0/unique/churn0.15/retry",
		"18 scoop/grid/n16/loss0/unique/churn0.15/faults-blackout",
		"19 scoop/grid/n16/loss0/unique/churn0.15/faults-blackout/retry",
		"20 scoop/grid/n16/loss0/unique/churn0.15/agg0.5",
		"21 scoop/grid/n16/loss0/unique/churn0.15/agg0.5/retry",
		"22 scoop/grid/n16/loss0/unique/churn0.15/agg0.5/faults-blackout",
		"23 scoop/grid/n16/loss0/unique/churn0.15/agg0.5/faults-blackout/retry",
		"24 scoop/grid/n16/loss0/unique/churn0.15/noreindex",
		"25 scoop/grid/n16/loss0/unique/churn0.15/noreindex/retry",
		"26 scoop/grid/n16/loss0/unique/churn0.15/noreindex/faults-blackout",
		"27 scoop/grid/n16/loss0/unique/churn0.15/noreindex/faults-blackout/retry",
		"28 scoop/grid/n16/loss0/unique/churn0.15/noreindex/agg0.5",
		"29 scoop/grid/n16/loss0/unique/churn0.15/noreindex/agg0.5/retry",
		"30 scoop/grid/n16/loss0/unique/churn0.15/noreindex/agg0.5/faults-blackout",
		"31 scoop/grid/n16/loss0/unique/churn0.15/noreindex/agg0.5/faults-blackout/retry",
		"32 hashsim/grid/n16/loss0/unique",
		"33 hashsim/grid/n16/loss0/unique/churn0.15",
		"34 base/grid/n16/loss0/unique",
		"35 base/grid/n16/loss0/unique/churn0.15",
	}
	if got := lines(small); !slices.Equal(got, want) {
		t.Errorf("small grid enumerates as\n%s\nwant\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Two or three values on all eleven axes pin the whole nesting
	// order; 1152 keys are held by count and digest rather than spelt
	// out.
	full := Grid{
		Policies:   []policy.Name{policy.Scoop, policy.HashSim, policy.Base},
		Topologies: []string{"uniform", "grid"},
		Sizes:      []int{16, 24},
		LossRates:  []float64{0, 0.2},
		ChurnRates: []float64{0, 0.15},
		Axes: []Axis{
			axis("drift", 0, 0.3),
			axis("noReindex", false, true),
			axis("aggMix", 0, 0.5),
			axis("faults", "", "blackout"),
			axis("retry", false, true),
		},
		Sources: []string{"real", "unique"},
	}
	got := lines(full)
	sum := sha256.Sum256([]byte(strings.Join(got, "\n") + "\n"))
	const wantSum = "5eea4d4c7c18aac1d48bf38c4e9e1934b59970cdaf130175585edd7f5924a61f"
	if len(got) != 1152 || hex.EncodeToString(sum[:]) != wantSum {
		t.Errorf("full grid: %d cells, digest %x; want 1152, %s", len(got), sum, wantSum)
	}
}

func TestDiff(t *testing.T) {
	cell := func(index int, p policy.Name, msgs float64) CellResult {
		return CellResult{Cell: Cell{Index: index, Policy: p, Topology: "uniform",
			N: 63, Source: "real"}, Msgs: msgs, DataSuccess: 0.9}
	}
	want := Report{Name: "b", Seed: 1, Cells: []CellResult{
		cell(0, policy.Scoop, 1000), cell(1, policy.Base, 4000), cell(2, policy.Local, 3000)}}
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
		lines  []string
	}{
		{"identical", func(*Report) {}, nil},
		{"one-field", func(r *Report) { r.Cells[1].Msgs = 4001 }, []string{
			"cell 1 base/uniform/n63/loss0/real: msgs: got 4001, want 4000"}},
		{"missing-and-extra", func(r *Report) { r.Cells[1] = cell(1, policy.HashSim, 4000) }, []string{
			"cell 1 base/uniform/n63/loss0/real: want it, got no such cell",
			"cell 1 hashsim/uniform/n63/loss0/real: got it, want no such cell"}},
		// Want's cells in index order, a cell's fields in artifact
		// order, got-only cells last — whatever order got lists them in.
		{"ordered", func(r *Report) {
			r.Seed = 2
			r.Cells[2].DataSuccess, r.Cells[2].Msgs, r.Cells[2].Index = 0.5, 3, 7
			r.Cells[0].Seed = 9
			r.Cells = []CellResult{cell(3, policy.HashSim, 1), r.Cells[2], r.Cells[0]}
		}, []string{
			"seed: got 2, want 1",
			"cell 0 scoop/uniform/n63/loss0/real: seed: got 9, want 0",
			"cell 1 base/uniform/n63/loss0/real: want it, got no such cell",
			"cell 2 local/uniform/n63/loss0/real: index: got 7, want 2",
			"cell 2 local/uniform/n63/loss0/real: msgs: got 3, want 3000",
			"cell 2 local/uniform/n63/loss0/real: dataSuccess: got 0.5, want 0.9",
			"cell 3 hashsim/uniform/n63/loss0/real: got it, want no such cell"}},
	} {
		got := Report{Name: want.Name, Seed: want.Seed, Cells: slices.Clone(want.Cells)}
		tc.mutate(&got)
		if lines := Diff(got, want); !slices.Equal(lines, tc.lines) {
			t.Errorf("%s: Diff =\n  %s\nwant\n  %s", tc.name,
				strings.Join(lines, "\n  "), strings.Join(tc.lines, "\n  "))
		}
	}
}
