// Package sweep turns the one-figure-at-a-time experiment harness into
// a grid engine: it expands the full cross-product of storage policy ×
// topology × network size × link-loss rate × churn rate × drift ×
// reindexing × query mix × workload source into independent cells,
// runs them on a bounded worker pool, and captures per-cell message
// counts, delivery rates, aggregate answer quality, transition metrics
// and wall-clock timing.
//
// Every cell derives its own seed from (base seed, cell index), so a
// sweep is reproducible regardless of how many workers run it or in
// which order cells are scheduled: the same base seed always yields a
// byte-identical JSON artifact. Committed artifacts double as
// baselines: a grid file (ReadGrid) beside each one regenerates it, CI
// requires the bytes to match, and Diff names the cells and fields
// that moved when they do not.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"scoop/internal/dynamics"
	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// Grid declares a parameter sweep: the axes whose cross-product forms
// the cells, plus the run parameters every cell shares. Default is the
// stock grid; in the zero value every axis is its single default and
// the run parameters are exp.Default's, with queries off.
//
// A grid file (ReadGrid) is this struct as a JSON object keyed by
// field name, first letter lowered: {"name": "ci", "sizes": [16, 24],
// "duration": "8m", "queryInterval": "15s", ...}.
type Grid struct {
	Name string // artifact label ("ci", "nightly", ...)

	// Axes. Cells are enumerated with Policies outermost and Sources
	// innermost; an empty axis means "the single default value".
	Policies   []policy.Name
	Topologies []string
	Sizes      []int     // network sizes including the basestation
	LossRates  []float64 // network-wide link degradation, each in [0,1)
	ChurnRates []float64 // fraction of nodes cycled per churn round (0: static membership)
	DriftRates []float64 // total data-distribution walk, as a domain fraction (0: stationary)
	// Reindex toggles periodic index rebuilds (empty: on). The "off"
	// value applies to the Scoop policy only — comparators have no
	// adaptive loop to freeze, so those cells are omitted.
	Reindex []bool
	// QueryMixes is the aggregate-query fraction axis (0: pure tuple
	// workload, the pre-agg default). Non-zero mixes apply to the
	// Scoop policy only — BASE answers at the basestation for free and
	// the analytical HASH has no simulation — so other cells are
	// omitted.
	QueryMixes []float64
	// Faults is the fault-scenario axis: each non-empty name resolves
	// through dynamics.FaultScenario ("blackout", "partition", "burst",
	// "baserestart", "campaign"); "" is the fault-free default. Fault
	// cells apply to the Scoop policy only — the comparators have no
	// reliability layer to exercise — so other cells are omitted.
	Faults []string
	// Retry toggles the query reliability layer (deadline retries plus
	// summary degradation, DESIGN.md §19) per cell. Scoop-only, like
	// Faults; the off value is the pre-§19 default.
	Retry   []bool
	Sources []string // workload skews ("unique", "real", "random", ...)

	// ScaleSizes is the scale-tier axis: for each size it appends
	// scoop/hash/local cells on the multi-hop "grid" topology at zero
	// injected loss over the first Source — the GHT/TAG regime up to
	// netsim.MaxNodes (1024). Kept separate from Sizes so the paper's
	// dense cross-product is not multiplied by thousand-node cells.
	ScaleSizes []int

	// Shared per-cell run parameters (see exp.Config).
	Duration       netsim.Time
	Warmup         netsim.Time
	SampleInterval netsim.Time
	QueryInterval  netsim.Time
	// ReindexInterval is the adaptive epoch length for every cell
	// (0: the protocol default, 240 s).
	ReindexInterval netsim.Time
	Trials          int

	// Seed is the base seed; each cell runs with a seed mixed from it
	// and the cell's index.
	Seed int64

	// Regions partitions every cell's network into this many parallel
	// regions (exp.Config.Regions). A run-mode knob, not an axis:
	// results are bit-identical for every value (DESIGN.md §18), so it
	// enters neither cell keys nor the JSON artifact — the identity
	// tests hold sweeps at Regions=4 to byte-equality with serial
	// baselines.
	Regions int `json:"-"`
}

// Default returns a 24-cell quick-scale grid: the paper's four
// policies × two network sizes × three loss rates over the REAL
// workload on the uniform topology.
func Default() Grid {
	return Grid{
		Name:           "default",
		Policies:       policy.Names(),
		Topologies:     []string{"uniform"},
		Sizes:          []int{32, 63},
		LossRates:      []float64{0, 0.1, 0.2},
		Sources:        []string{"real"},
		Duration:       22 * netsim.Minute,
		Warmup:         6 * netsim.Minute,
		SampleInterval: 15 * netsim.Second,
		QueryInterval:  15 * netsim.Second,
		Trials:         1,
		Seed:           1,
	}
}

// Cell is one grid point. Its JSON form opens every CellResult in an
// artifact; the dynamics, query-mix and fault fields are omitted at
// their defaults so artifacts older than those axes keep their bytes.
type Cell struct {
	Index    int         `json:"index"`
	Policy   policy.Name `json:"policy"`
	Topology string      `json:"topology"`
	N        int         `json:"n"`
	Loss     float64     `json:"loss"`
	Churn    float64     `json:"churn,omitempty"`
	Drift    float64     `json:"drift,omitempty"`
	// NoReindex freezes the first index (negative polarity so the
	// zero value — and every pre-dynamics baseline artifact — means
	// "reindexing on", the protocol default).
	NoReindex bool `json:"noReindex,omitempty"`
	// AggMix is the aggregate fraction of the query stream (0: pure
	// tuple workload, the pre-agg default).
	AggMix float64 `json:"aggMix,omitempty"`
	// Faults names the injected fault scenario ("": fault-free).
	Faults string `json:"faults,omitempty"`
	// Retry arms the query reliability layer (deadline retries plus
	// summary degradation); false is the pre-§19 default.
	Retry  bool   `json:"retry,omitempty"`
	Source string `json:"source"`
}

// Key returns the cell's stable identity, independent of its index —
// the join key Diff matches artifact cells on. Dynamics components
// appear only when non-default, so keys from pre-dynamics baseline
// artifacts still match their cells.
func (c Cell) Key() string {
	k := fmt.Sprintf("%s/%s/n%d/loss%g/%s", c.Policy, c.Topology, c.N, c.Loss, c.Source)
	if c.Churn > 0 {
		k += fmt.Sprintf("/churn%g", c.Churn)
	}
	if c.Drift != 0 {
		k += fmt.Sprintf("/drift%g", c.Drift)
	}
	if c.NoReindex {
		k += "/noreindex"
	}
	if c.AggMix > 0 {
		k += fmt.Sprintf("/agg%g", c.AggMix)
	}
	if c.Faults != "" {
		k += "/faults-" + c.Faults
	}
	if c.Retry {
		k += "/retry"
	}
	return k
}

func orDefault[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// scoopOnly reports whether the cell sets an axis only the Scoop policy
// has a mechanism for: an adaptive loop to freeze, a query planner for
// aggregate mixes (BASE answers for free at the basestation, analytical
// HASH has no simulation), a query reliability layer for faults and
// retries to exercise. On a comparator such a cell would repeat the
// plain cell under a misleading key, so Cells omits it.
func (c Cell) scoopOnly() bool {
	return c.NoReindex || c.AggMix > 0 || c.Faults != "" || c.Retry
}

// pick returns the axis value selected by the lowest digit of the
// mixed-radix number *r and shifts that digit out.
func pick[T any](axis []T, r *int) T {
	v := axis[*r%len(axis)]
	*r /= len(axis)
	return v
}

// Cells expands the grid's cross-product in deterministic order
// (Policies outermost, then topology, size, loss, churn, drift,
// reindex, query mix, faults, retry, with Sources innermost).
func (g Grid) Cells() []Cell {
	policies := orDefault(g.Policies, policy.Scoop)
	topos := orDefault(g.Topologies, "uniform")
	sizes := orDefault(g.Sizes, 63)
	losses := orDefault(g.LossRates, 0)
	churns := orDefault(g.ChurnRates, 0)
	drifts := orDefault(g.DriftRates, 0)
	reindex := orDefault(g.Reindex, true)
	mixes := orDefault(g.QueryMixes, 0)
	faults := orDefault(g.Faults, "")
	retries := orDefault(g.Retry, false)
	sources := orDefault(g.Sources, "real")
	product := len(policies) * len(topos) * len(sizes) * len(losses) *
		len(churns) * len(drifts) * len(reindex) * len(mixes) *
		len(faults) * len(retries) * len(sources)
	cells := make([]Cell, 0, product+3*len(g.ScaleSizes))
	for i := 0; i < product; i++ {
		// Count in mixed radix, the innermost axis the fastest digit.
		r := i
		var c Cell
		c.Source = pick(sources, &r)
		c.Retry = pick(retries, &r)
		c.Faults = pick(faults, &r)
		c.AggMix = pick(mixes, &r)
		c.NoReindex = !pick(reindex, &r)
		c.Drift = pick(drifts, &r)
		c.Churn = pick(churns, &r)
		c.Loss = pick(losses, &r)
		c.N = pick(sizes, &r)
		c.Topology = pick(topos, &r)
		c.Policy = pick(policies, &r)
		if c.Policy != policy.Scoop && c.scoopOnly() {
			continue
		}
		if c.Policy == policy.Hash && (c.Churn > 0 || c.Drift != 0) {
			// Analytical HASH has no simulation to perturb; exp.Run
			// rejects the combination, so the grid omits it (hashsim
			// covers it).
			continue
		}
		c.Index = len(cells)
		cells = append(cells, c)
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		seen[c.Key()] = true
	}
	for _, n := range g.ScaleSizes {
		for _, p := range []policy.Name{policy.Scoop, policy.Hash, policy.Local} {
			c := Cell{Index: len(cells), Policy: p, Topology: "grid",
				N: n, Source: sources[0]}
			if seen[c.Key()] {
				continue // already covered by the main grid
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// CellSeed derives the seed for cell index from the base seed with a
// splitmix64 finalizer, so neighbouring cells get decorrelated RNG
// streams and the mapping is independent of scheduling order.
func CellSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	// Keep seeds positive: the trial-seed arithmetic in exp assumes
	// nothing, but readable artifacts do.
	return int64(z &^ (1 << 63))
}

// config assembles and validates the exp.Config for one cell. It
// builds no topology or network, so Run can afford it for every cell
// before the first one starts.
func (g Grid) config(c Cell) (exp.Config, error) {
	if c.Churn < 0 || c.Churn >= 1 {
		return exp.Config{}, fmt.Errorf("sweep: churn rate %g outside [0,1)", c.Churn)
	}
	if c.Drift < -1 || c.Drift > 1 {
		return exp.Config{}, fmt.Errorf("sweep: drift total %g outside [-1,1]", c.Drift)
	}
	cfg := exp.Default()
	cfg.Policy = c.Policy
	cfg.Topology = c.Topology
	cfg.N = c.N
	cfg.LinkLoss = c.Loss
	cfg.Source = c.Source
	if g.Duration > 0 {
		cfg.Duration = g.Duration
	}
	if g.Warmup > 0 {
		cfg.Warmup = g.Warmup
	}
	if g.SampleInterval > 0 {
		cfg.SampleInterval = g.SampleInterval
	}
	cfg.QueryInterval = g.QueryInterval
	cfg.Trials = g.Trials // exp.Run reads <= 0 as 1
	cfg.Seed = CellSeed(g.Seed, c.Index)
	cfg.Regions = g.Regions
	cfg.ReindexInterval = g.ReindexInterval
	cfg.DisableReindex = c.NoReindex
	cfg.AggRatio = c.AggMix
	if c.AggMix > 0 {
		// A moderate budget lets the planner exercise summary answers
		// alongside the network plans.
		cfg.AggErrBudget = 0.25
	}
	cfg.Faults = c.Faults
	if c.Retry {
		// The campaign's reference reliability tuning: an 8 s initial
		// deadline doubling across up to 7 re-asks spans every scripted
		// fault window (see TestReliabilityAcceptance in internal/exp).
		cfg.QueryDeadline = 8 * netsim.Second
		cfg.QueryRetryMax = 7
	}
	// Validate before generating the churn script, whose size follows
	// N and the run length.
	if err := cfg.Validate(); err != nil {
		return exp.Config{}, err
	}
	if c.Churn > 0 || c.Drift != 0 {
		script := dynamics.Standard(c.N, cfg.Warmup, cfg.Duration,
			c.Churn, c.Drift, cfg.Seed+101)
		cfg.Dynamics = &script
	}
	return cfg, nil
}

// CellResult captures one finished cell. All fields serialised to JSON
// are deterministic for a given base seed; wall-clock timing is
// captured for operator visibility but excluded from artifacts so
// committed baselines stay byte-stable.
type CellResult struct {
	Cell
	Seed int64 `json:"seed"`

	// Message counts (mean per trial, beacons excluded from Msgs), the
	// paper's cost metric and the gate's headline number.
	Msgs     float64 `json:"msgs"`
	Data     float64 `json:"data"`
	Summary  float64 `json:"summary"`
	Mapping  float64 `json:"mapping"`
	Query    float64 `json:"query"`
	Reply    float64 `json:"reply"`
	AggReply float64 `json:"aggReply,omitempty"`
	Beacon   float64 `json:"beacon"`

	// Delivery quality.
	DataSuccess  float64 `json:"dataSuccess"`
	QuerySuccess float64 `json:"querySuccess"`
	OwnerHit     float64 `json:"ownerHit"`

	// Aggregate-engine quality (aggMix > 0 cells only): answered
	// fraction, mean absolute relative answer error, and the planner's
	// decision mix.
	AggAnswered float64 `json:"aggAnswered,omitempty"`
	AggErr      float64 `json:"aggErr,omitempty"`
	PlanSummary float64 `json:"planSummary,omitempty"`
	PlanAgg     float64 `json:"planAgg,omitempty"`
	PlanTuple   float64 `json:"planTuple,omitempty"`
	PlanFlood   float64 `json:"planFlood,omitempty"`

	// Query reliability (fault or retry cells only): the fraction of
	// settled queries with a usable answer (complete + bounded
	// degraded), the verdict census, and the deadline re-issue count.
	// Overhead lives in the per-class byte columns above; latency for
	// aggregate mixes in AggFirstMS (summed virtual ms to first
	// partial, over answered aggregates).
	Completeness    float64 `json:"completeness,omitempty"`
	VerdictComplete int64   `json:"verdictComplete,omitempty"`
	VerdictPartial  int64   `json:"verdictPartial,omitempty"`
	VerdictDegraded int64   `json:"verdictDegraded,omitempty"`
	VerdictFailed   int64   `json:"verdictFailed,omitempty"`
	Retries         int64   `json:"retries,omitempty"`
	AggFirstMS      float64 `json:"aggFirstMS,omitempty"`

	// Transition metrics (perturbed cells only; means across trials).
	// Perturbed marks cells whose trials recorded a transition
	// timeline, so a legitimate zero (e.g. instant reconvergence) is
	// distinguishable from "no metrics". ReconvS is the virtual
	// seconds from the last perturbation until delivery stays within
	// 5% of its pre-perturbation level; -1 when a trial never
	// reconverged.
	Perturbed      bool    `json:"perturbed,omitempty"`
	ReconvS        float64 `json:"reconvS,omitempty"`
	DeliveryDuring float64 `json:"deliveryDuring,omitempty"`
	DeliveryAfter  float64 `json:"deliveryAfter,omitempty"`

	// WallMS is the cell's wall-clock run time in milliseconds. It is
	// scheduling- and machine-dependent, so it never enters the JSON
	// artifact.
	WallMS float64 `json:"-"`

	// Reindex cost probe (index.BuildStats via core.RunStats, summed
	// across the cell's trials): how much index-construction work the
	// basestation did, and what the incremental pipeline skipped.
	// Operator visibility only — like WallMS these stay out of the
	// JSON artifact, both because ReindexWallMS is machine-dependent
	// and so pre-overhaul baselines remain byte-comparable.
	ReindexBuilds     int64   `json:"-"`
	ReindexValues     int64   `json:"-"`
	ReindexRecomputed int64   `json:"-"`
	ReindexSPT        int64   `json:"-"`
	ReindexWallMS     float64 `json:"-"`
}

// Report is a finished sweep: the artifact WriteFile persists and Diff
// compares.
type Report struct {
	Name  string       `json:"name"`
	Seed  int64        `json:"seed"`
	Cells []CellResult `json:"cells"`
}

// Options tunes Run.
type Options struct {
	// Parallel bounds concurrently running cells; <=0 means NumCPU.
	// Note each cell may itself run Trials goroutines (exp.Run).
	Parallel int
	// Progress, when non-nil, is called once per finished cell, from
	// the worker goroutine that ran it.
	Progress func(CellResult)
}

// plan expands the grid and assembles every cell's configuration,
// refusing the whole grid on the first cell that does not validate.
func (g Grid) plan() ([]Cell, []exp.Config, error) {
	cells := g.Cells()
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("sweep: empty grid")
	}
	cfgs := make([]exp.Config, len(cells))
	for i, c := range cells {
		var err error
		if cfgs[i], err = g.config(c); err != nil {
			return nil, nil, fmt.Errorf("sweep: cell %d (%s): %w", i, c.Key(), err)
		}
	}
	return cells, cfgs, nil
}

// Run executes every cell of the grid on a bounded worker pool and
// returns the results ordered by cell index. Every cell's configuration
// is validated (plan) before the first cell starts, so a bad axis value
// costs no simulation time. The report is identical whatever Parallel is:
// each cell's seed depends only on (base seed, index), and cells share
// no mutable state.
func Run(g Grid, opts Options) (Report, error) {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	cells, cfgs, err := g.plan()
	if err != nil {
		return Report{}, err
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	work := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				results[c.Index], errs[c.Index] = runCell(c, cfgs[c.Index])
				if errs[c.Index] == nil && opts.Progress != nil {
					opts.Progress(results[c.Index])
				}
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("sweep: cell %d (%s): %w", i, cells[i].Key(), err)
		}
	}
	return Report{Name: g.Name, Seed: g.Seed, Cells: results}, nil
}

func runCell(c Cell, cfg exp.Config) (CellResult, error) {
	start := time.Now()
	res, err := exp.Run(cfg)
	if err != nil {
		return CellResult{}, err
	}
	b := res.Breakdown
	out := CellResult{
		Cell: c,
		Seed: cfg.Seed,

		Msgs:     b.Total(),
		Data:     b.Data,
		Summary:  b.Summary,
		Mapping:  b.Mapping,
		Query:    b.Query,
		Reply:    b.Reply,
		AggReply: b.AggReply,
		Beacon:   b.Beacon,

		DataSuccess:  res.Stats.DataSuccessRate(),
		QuerySuccess: res.Stats.QuerySuccessRate(),
		OwnerHit:     res.Stats.OwnerHitRate(),

		WallMS: float64(time.Since(start)) / float64(time.Millisecond),

		ReindexBuilds:     res.Stats.IndexesBuilt,
		ReindexValues:     res.Stats.ReindexValues,
		ReindexRecomputed: res.Stats.ReindexRecomputed,
		ReindexSPT:        res.Stats.ReindexSPTSources,
		ReindexWallMS:     float64(res.Stats.ReindexWallNanos) / 1e6,
	}
	if c.Faults != "" || c.Retry {
		s := &res.Stats
		out.VerdictComplete = s.QueryVerdictComplete
		out.VerdictPartial = s.QueryVerdictPartial
		out.VerdictDegraded = s.QueryVerdictDegraded
		out.VerdictFailed = s.QueryVerdictFailed
		out.Retries = s.QueryRetries
		if settled := s.QueryVerdictComplete + s.QueryVerdictPartial +
			s.QueryVerdictDegraded + s.QueryVerdictFailed; settled > 0 {
			out.Completeness = float64(s.QueryVerdictComplete+s.QueryVerdictDegraded) /
				float64(settled)
		}
		out.AggFirstMS = float64(s.AggFirstAnswerMS)
	}
	if res.Agg.Issued > 0 {
		out.AggAnswered = float64(res.Agg.Answered) / float64(res.Agg.Issued)
		out.AggErr = res.Agg.MeanErr()
		out.PlanSummary = float64(res.Stats.PlanSummaryChosen)
		out.PlanAgg = float64(res.Stats.PlanAggChosen)
		out.PlanTuple = float64(res.Stats.PlanTupleChosen)
		out.PlanFlood = float64(res.Stats.PlanFloodChosen)
	}

	// Transition metrics: mean across trials that recorded a
	// perturbed timeline; ReconvS is -1 as soon as one trial never
	// reconverged (the pessimistic read a gate wants).
	var reconv, during, after float64
	summarized, failed := 0, false
	for _, t := range res.PerTrial {
		s, ok := t.Timeline.Summarize(0.05)
		if !ok {
			continue
		}
		summarized++
		during += s.DeliveryDuring
		after += s.DeliveryAfter
		if s.ReconvergenceMS < 0 {
			failed = true
		} else {
			reconv += float64(s.ReconvergenceMS) / 1000
		}
	}
	if summarized > 0 {
		out.Perturbed = true
		out.DeliveryDuring = during / float64(summarized)
		out.DeliveryAfter = after / float64(summarized)
		if failed {
			out.ReconvS = -1
		} else {
			out.ReconvS = reconv / float64(summarized)
		}
	}
	return out, nil
}
