package exp

import (
	"fmt"
	"strings"
	"time"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/query"
)

// Table is one reproduced figure/table: a title, column header and
// formatted rows, printed the way the paper reports its results.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// Scale shrinks experiments for fast test runs. Full reproduces the
// paper's parameters; Quick runs one short trial per cell.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) apply(cfg *Config) {
	if s == Quick {
		cfg.Trials = 1
		cfg.Duration = 22 * netsim.Minute
		cfg.Warmup = 6 * netsim.Minute
	}
}

// run runs the paper's default cell at this scale and seed with mod's
// changes on top. The figures' configs are static, so an error is a bug.
func (s Scale) run(seed int64, mod func(*Config)) Result {
	cfg := Default()
	cfg.Seed = seed
	s.apply(&cfg)
	mod(&cfg)
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

func breakdownRow(label string, r Result) []string {
	b := r.Breakdown
	return []string{
		label,
		fmt.Sprintf("%.0f", b.Total()),
		fmt.Sprintf("%.0f", b.Data),
		fmt.Sprintf("%.0f", b.Summary),
		fmt.Sprintf("%.0f", b.Mapping),
		fmt.Sprintf("%.0f", b.Query),
		fmt.Sprintf("%.0f", b.Reply),
	}
}

var breakdownHeader = []string{"case", "total", "data", "summary", "mapping", "query", "reply"}

// Figure3Left reproduces the paper's Figure 3 (left): per-policy
// message breakdowns on the testbed topology — scoop/unique,
// scoop/gaussian, local/gaussian, base/gaussian.
func Figure3Left(scale Scale, seed int64) (Table, []Result) {
	cells := []struct {
		policy policy.Name
		source string
	}{
		{policy.Scoop, "unique"},
		{policy.Scoop, "gaussian"},
		{policy.Local, "gaussian"},
		{policy.Base, "gaussian"},
	}
	t := Table{
		Title:  "Figure 3 (left): testbed message breakdown by storage method/data source",
		Header: breakdownHeader,
	}
	var results []Result
	for _, c := range cells {
		r := scale.run(seed, func(cfg *Config) {
			cfg.Topology, cfg.Policy, cfg.Source = "testbed", c.policy, c.source
		})
		results = append(results, r)
		t.Rows = append(t.Rows, breakdownRow(fmt.Sprintf("%s/%s", c.policy, c.source), r))
	}
	return t, results
}

// Figure3Middle reproduces Figure 3 (middle): SCOOP vs LOCAL vs HASH
// vs BASE over the REAL trace in simulation. HASH is the paper's
// analytical model, derived from the BASE run (DeriveHash).
func Figure3Middle(scale Scale, seed int64) (Table, []Result) {
	t := Table{
		Title:  "Figure 3 (middle): simulation, REAL trace, by storage method",
		Header: breakdownHeader,
	}
	run := func(p policy.Name) Result { return scale.run(seed, func(cfg *Config) { cfg.Policy = p }) }
	base := run(policy.Base)
	results := []Result{run(policy.Scoop), run(policy.Local), mustDeriveHash(base), base}
	for i, label := range []string{"scoop", "local", "hash", "base"} {
		t.Rows = append(t.Rows, breakdownRow(label, results[i]))
	}
	return t, results
}

// mustDeriveHash is DeriveHash for the figures, whose BASE runs are
// static configs, so an error is a bug.
func mustDeriveHash(base Result) Result {
	r, err := DeriveHash(base)
	if err != nil {
		panic(err)
	}
	return r
}

// Figure3Right reproduces Figure 3 (right): SCOOP over the five data
// sources in simulation.
func Figure3Right(scale Scale, seed int64) (Table, []Result) {
	t := Table{
		Title:  "Figure 3 (right): simulation, SCOOP by data source",
		Header: breakdownHeader,
	}
	var results []Result
	for _, src := range []string{"unique", "equal", "real", "gaussian", "random"} {
		r := scale.run(seed, func(cfg *Config) { cfg.Source = src })
		results = append(results, r)
		t.Rows = append(t.Rows, breakdownRow(src, r))
	}
	return t, results
}

// Figure4 reproduces Figure 4: total cost vs percentage of nodes
// queried for SCOOP, LOCAL and BASE over REAL data.
func Figure4(scale Scale, seed int64) (Table, map[policy.Name][]Result) {
	pcts := []float64{0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}
	t := Table{
		Title:  "Figure 4: total messages vs % nodes queried (REAL, simulation)",
		Header: []string{"% nodes", "SCOOP", "LOCAL", "BASE"},
	}
	byPolicy := make(map[policy.Name][]Result)
	for _, pct := range pcts {
		row := []string{fmt.Sprintf("%.0f%%", pct*100)}
		for _, p := range []policy.Name{policy.Scoop, policy.Local, policy.Base} {
			r := scale.run(seed, func(cfg *Config) { cfg.Policy, cfg.NodePct = p, pct })
			byPolicy[p] = append(byPolicy[p], r)
			row = append(row, fmt.Sprintf("%.0f", r.Breakdown.Total()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, byPolicy
}

// Figure5 reproduces Figure 5: total cost vs query interval for SCOOP,
// LOCAL and BASE over REAL data.
func Figure5(scale Scale, seed int64) (Table, map[policy.Name][]Result) {
	intervals := []netsim.Time{5 * netsim.Second, 10 * netsim.Second, 15 * netsim.Second,
		25 * netsim.Second, 45 * netsim.Second}
	t := Table{
		Title:  "Figure 5: total messages vs query interval (REAL, simulation)",
		Header: []string{"interval", "SCOOP", "LOCAL", "BASE"},
	}
	byPolicy := make(map[policy.Name][]Result)
	for _, iv := range intervals {
		row := []string{fmt.Sprintf("%ds", iv/netsim.Second)}
		for _, p := range []policy.Name{policy.Scoop, policy.Local, policy.Base} {
			r := scale.run(seed, func(cfg *Config) { cfg.Policy, cfg.QueryInterval = p, iv })
			byPolicy[p] = append(byPolicy[p], r)
			row = append(row, fmt.Sprintf("%.0f", r.Breakdown.Total()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, byPolicy
}

// SampleIntervalSweep reproduces the paper's "other experiments" sweep:
// SCOOP cost by data source as the sample interval grows; differences
// between sources shrink as fixed costs dominate.
func SampleIntervalSweep(scale Scale, seed int64) (Table, map[string][]Result) {
	intervals := []netsim.Time{15 * netsim.Second, 30 * netsim.Second,
		60 * netsim.Second, 120 * netsim.Second}
	sources := []string{"unique", "real", "random"}
	t := Table{
		Title:  "Sample-interval sweep: SCOOP total messages by data source",
		Header: append([]string{"interval"}, sources...),
	}
	bySource := make(map[string][]Result)
	for _, iv := range intervals {
		row := []string{fmt.Sprintf("%ds", iv/netsim.Second)}
		for _, src := range sources {
			r := scale.run(seed, func(cfg *Config) { cfg.Source, cfg.SampleInterval = src, iv })
			bySource[src] = append(bySource[src], r)
			row = append(row, fmt.Sprintf("%.0f", r.Breakdown.Total()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, bySource
}

// LossRates reproduces the paper's delivery measurements: ~93% of data
// stored, ~78% of query results retrieved, ~85% of routed readings
// reaching their owner, on the testbed.
func LossRates(scale Scale, seed int64) (Table, Result) {
	r := scale.run(seed, func(cfg *Config) { cfg.Topology = "testbed" })
	t := Table{
		Title:  "Loss rates (SCOOP, testbed)",
		Header: []string{"metric", "measured", "paper"},
		Rows: [][]string{
			{"data stored", fmt.Sprintf("%.0f%%", 100*r.Stats.DataSuccessRate()), "93%"},
			{"query results retrieved", fmt.Sprintf("%.0f%%", 100*r.Stats.QuerySuccessRate()), "78%"},
			{"owner found (routed data)", fmt.Sprintf("%.0f%%", 100*r.Stats.OwnerHitRate()), "85%"},
		},
	}
	return t, r
}

// RootSkew reproduces the root-load comparison: messages sent and
// received by the root under SCOOP, BASE and LOCAL with the REAL
// workload.
func RootSkew(scale Scale, seed int64) (Table, []Result) {
	t := Table{
		Title:  "Root-node load (REAL, simulation)",
		Header: []string{"policy", "root sent", "root received", "network total"},
	}
	var results []Result
	for _, p := range []policy.Name{policy.Scoop, policy.Base, policy.Local} {
		r := scale.run(seed, func(cfg *Config) { cfg.Policy = p })
		results = append(results, r)
		t.Rows = append(t.Rows, []string{
			string(p),
			fmt.Sprintf("%.0f", r.RootSent),
			fmt.Sprintf("%.0f", r.RootRecv),
			fmt.Sprintf("%.0f", r.Breakdown.Total()),
		})
	}
	return t, results
}

// Scaling reproduces the network-size experiment: SCOOP scales to 100
// nodes, with RANDOM more sensitive to size than localized sources.
func Scaling(scale Scale, seed int64) (Table, map[string][]Result) {
	sizes := []int{26, 63, 101}
	sources := []string{"real", "random"}
	t := Table{
		Title:  "Scaling: SCOOP total messages by network size",
		Header: []string{"nodes", "real", "random", "real/node", "random/node"},
	}
	bySource := make(map[string][]Result)
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		var totals []float64
		for _, src := range sources {
			r := scale.run(seed, func(cfg *Config) { cfg.N, cfg.Source = n, src })
			bySource[src] = append(bySource[src], r)
			totals = append(totals, r.Breakdown.Total())
			row = append(row, fmt.Sprintf("%.0f", r.Breakdown.Total()))
		}
		for _, tot := range totals {
			row = append(row, fmt.Sprintf("%.0f", tot/float64(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, bySource
}

// FigureChurn is an extension figure (not in the paper): SCOOP versus
// the simulated HASH and LOCAL baselines under mid-run membership
// churn and data drift. The paper's static indices cannot adapt — a
// dead HASH owner keeps its value ranges, a drifted distribution
// lands on owners placed for the old one — while Scoop's periodic
// rebuilds re-place ownership from fresh statistics (§5). Reported
// per scenario: total messages and end-to-end data delivery.
func FigureChurn(scale Scale, seed int64) (Table, map[string][]Result) {
	scenarios := []struct {
		name         string
		churn, drift float64
	}{
		{"steady", 0, 0},
		{"churn", 0.10, 0},
		{"drift", 0, 0.4},
		{"churn+drift", 0.10, 0.4},
	}
	pols := []policy.Name{policy.Scoop, policy.HashSim, policy.Local}
	t := Table{
		Title:  "Churn/drift: SCOOP vs simulated HASH vs LOCAL (REAL, simulation)",
		Header: []string{"scenario", "scoop", "hashsim", "local", "scoop-deliv", "hashsim-deliv", "local-deliv"},
	}
	byScenario := make(map[string][]Result)
	for _, sc := range scenarios {
		row := []string{sc.name}
		var deliv []string
		for _, p := range pols {
			r := scale.run(seed, func(cfg *Config) {
				cfg.Policy = p
				// Adapt faster than the default 240 s epoch so recovery
				// fits inside the run.
				cfg.ReindexInterval = 2 * netsim.Minute
				if sc.churn > 0 || sc.drift != 0 {
					script := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration,
						sc.churn, sc.drift, seed+17)
					cfg.Dynamics = &script
				}
			})
			byScenario[sc.name] = append(byScenario[sc.name], r)
			row = append(row, fmt.Sprintf("%.0f", r.Breakdown.Total()))
			deliv = append(deliv, fmt.Sprintf("%.0f%%", 100*r.Stats.DataSuccessRate()))
		}
		t.Rows = append(t.Rows, append(row, deliv...))
	}
	return t, byScenario
}

// FigureAgg is an extension figure (not in the paper): bytes per
// answered aggregate for the three physical plans — tuple return,
// in-network partial-aggregate combining, and summary-only answering
// — across network size and link loss, over an all-aggregate workload
// (the §5.5 / TAG-lineage motivation for the query planner). The mean
// absolute relative answer error is reported alongside, showing what
// each plan trades for its bytes.
func FigureAgg(scale Scale, seed int64) (Table, map[string][]Result) {
	variants := []struct {
		name   string
		force  query.Plan
		budget float64
	}{
		{"tuple", query.PlanTuple, 0},
		{"agg", query.PlanAgg, 0},
		{"summary", query.PlanSummary, 1e9},
	}
	sizes := []int{16, 32}
	losses := []float64{0, 0.2}
	t := Table{
		Title: "Aggregate engine: bytes per answer by physical plan (REAL, simulation)",
		Header: []string{"nodes", "loss", "tuple B/ans", "agg B/ans", "summary B/ans",
			"tuple err", "agg err", "summary err"},
	}
	byVariant := make(map[string][]Result)
	for _, n := range sizes {
		for _, loss := range losses {
			row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%g", loss)}
			var errs []string
			for _, v := range variants {
				r := scale.run(seed, func(cfg *Config) {
					cfg.N, cfg.LinkLoss, cfg.AggRatio = n, loss, 1
					// Half-domain aggregates: the large-result regime the
					// planner routes to in-network combining. Exact
					// operators only, so every variant can execute its
					// forced plan (quantiles are summary-only).
					cfg.QueryWidth = 0.5
					cfg.AggOps = []query.Op{query.OpCount, query.OpSum,
						query.OpAvg, query.OpMin, query.OpMax}
					cfg.AggErrBudget, cfg.AggForce = v.budget, v.force
				})
				byVariant[v.name] = append(byVariant[v.name], r)
				row = append(row, fmt.Sprintf("%.0f", r.BytesPerAnswer()))
				errs = append(errs, fmt.Sprintf("%.3f", r.Agg.MeanErr()))
			}
			t.Rows = append(t.Rows, append(row, errs...))
		}
	}
	return t, byVariant
}

// FigureScale is the scale-tier extension figure (not in the paper,
// which stops at ~100 nodes): SCOOP versus the analytical HASH
// baseline, derived from a BASE run at each size, on multi-hop grid
// topologies up to 1000 nodes — the GHT/TAG regime. Reported per cell:
// total messages, messages per node, end-to-end data delivery, and the
// simulator's own throughput on the SCOOP run (wall-clock seconds and
// virtual-seconds-per-wall-second), which is what bench/ measures as
// sim_rate on scale1000. Delivery degrading as N grows is the finding,
// not a bug: the protocol's funnel toward one basestation saturates the
// fixed-capacity MAC exactly as the paper's saturation discussion
// predicts. byN[n] holds the SCOOP run, the derived HASH and its BASE
// run.
func FigureScale(scale Scale, seed int64) (Table, map[int][]Result) {
	sizes := []int{65, 250, 1000}
	t := Table{
		Title: "Scale tier: SCOOP vs analytical HASH on grids up to 1000 nodes",
		Header: []string{"nodes", "scoop msgs", "msgs/node", "delivery",
			"hash msgs", "wall s", "sim-s/wall-s"},
	}
	byN := make(map[int][]Result)
	for _, n := range sizes {
		run := func(p policy.Name) Result {
			return scale.run(seed, func(cfg *Config) { cfg.Policy, cfg.N, cfg.Topology = p, n, "grid" })
		}
		start := time.Now() //scoop:allow walltime scale-figure throughput probe, printed to the operator only
		scoopRes := run(policy.Scoop)
		wall := time.Since(start).Seconds() //scoop:allow walltime scale-figure throughput probe, printed to the operator only
		base := run(policy.Base)
		hashRes := mustDeriveHash(base)
		byN[n] = []Result{scoopRes, hashRes, base}
		// Trials run concurrently, so the throughput column is
		// aggregate virtual seconds simulated per wall second.
		simSec := float64(scoopRes.Config.Duration) / 1000 * float64(scoopRes.Config.Trials)
		rate := 0.0
		if wall > 0 {
			rate = simSec / wall
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", scoopRes.Breakdown.Total()),
			fmt.Sprintf("%.1f", scoopRes.Breakdown.Total()/float64(n)),
			fmt.Sprintf("%.0f%%", 100*scoopRes.Stats.DataSuccessRate()),
			fmt.Sprintf("%.0f", hashRes.Breakdown.Total()),
			fmt.Sprintf("%.1f", wall),
			fmt.Sprintf("%.0f", rate),
		})
	}
	return t, byN
}

// EnergyTable reproduces the paper's energy comparison (§6): "if a
// node running LOCAL can last for one month using a small battery, an
// average SCOOP node would last for about three months, although the
// battery on the root in SCOOP would have to be replaced every two
// weeks." Lifetimes are extrapolated from measured radio traffic under
// the Mica2-era energy model.
func EnergyTable(scale Scale, seed int64) (Table, []Result) {
	t := Table{
		Title:  "Energy: extrapolated battery lifetimes (REAL, simulation)",
		Header: []string{"policy", "avg node J", "avg node days", "root J", "root days", "comms share"},
	}
	var results []Result
	for _, p := range []policy.Name{policy.Scoop, policy.Local, policy.Base} {
		r := scale.run(seed, func(cfg *Config) { cfg.Policy = p })
		results = append(results, r)
		e := r.Energy
		t.Rows = append(t.Rows, []string{
			string(p),
			fmt.Sprintf("%.1f", e.AvgNodeJ),
			fmt.Sprintf("%.0f", e.AvgNodeDays),
			fmt.Sprintf("%.1f", e.RootJ),
			fmt.Sprintf("%.0f", e.RootDays),
			fmt.Sprintf("%.0f%%", 100*e.CommsFraction),
		})
	}
	return t, results
}
