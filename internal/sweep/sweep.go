// Package sweep turns the experiment harness into a grid engine: it
// expands the cross-product of a grid's axes — storage policy ×
// topology × network size × link-loss rate × churn rate × any further
// cell field × workload source — into independent cells, runs them on
// a bounded worker pool, and captures per-cell message counts, delivery
// rates, aggregate answer quality, transition metrics and wall-clock
// timing. A grid's tables print the report as pivots; the paper's
// figures are grid files (testdata/fig-*.grid.json).
//
// Every cell derives its own seed from (base seed, cell index), or
// under SharedSeed runs at the base seed itself, so a sweep is
// reproducible regardless of how many workers run it or in which order
// cells are scheduled: the same base seed always yields a
// byte-identical JSON artifact. Committed artifacts double as
// baselines: a grid file (ReadGrid) beside each one regenerates it, CI
// requires the bytes to match, and Diff names the cells and fields
// that moved when they do not.
package sweep

import (
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"scoop/internal/dynamics"
	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// Grid declares a parameter sweep: the axes whose cross-product forms
// the cells, the run parameters every cell shares, and the tables
// printed from the finished report. Default is the stock grid; in the
// zero value every axis is its single default and the run parameters
// are exp.Default's, with queries off.
//
// A grid file (ReadGrid) is this struct as a JSON object keyed by
// field name, first letter lowered: {"name": "ci", "sizes": [16, 24],
// "duration": "8m", "queryInterval": "15s", ...}.
type Grid struct {
	Name string // artifact label ("ci", "nightly", ...)

	// Named axes, shorthand for the Axes entries of the Cell fields
	// policy, topology, n, loss, churn and source. Cells enumerates
	// them in that order, Axes between churn and source, with the
	// policy outermost; an empty named axis is its field's single
	// default value.
	Policies   []policy.Name
	Topologies []string
	Sizes      []int     // network sizes including the basestation
	LossRates  []float64 // network-wide link degradation, each in [0,1)
	ChurnRates []float64 // fraction of nodes cycled per churn round (0: static membership)
	// Axes are the further axes, over any Cell field, in file order:
	// {"field": "drift", "values": [0, 0.3]}.
	Axes    []Axis
	Sources []string // workload skews ("unique", "real", "random", ...)

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
	// SharedSeed runs every cell at Seed itself, so the cells share
	// their topology and workload draws and differ only in their axis
	// values: a figure compares policies and settings on the same
	// network, as the paper's do.
	SharedSeed bool

	// Tables are the pivots of the finished report scoopsweep prints.
	Tables []Table
}

// Axis is one dimension of a grid: a Cell field, named by its JSON key,
// and the values it takes, each spelt as that field is in an artifact.
type Axis struct {
	Field  string            `json:"field"`
	Values []json.RawMessage `json:"values"`
}

// Default returns a 24-cell quick-scale grid: the four runnable
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
// artifact; every field after loss is omitted at its zero value, the
// run's default, so artifacts older than a field keep their bytes.
type Cell struct {
	Index    int         `json:"index"`
	Policy   policy.Name `json:"policy"`
	Topology string      `json:"topology"`
	N        int         `json:"n"`
	Loss     float64     `json:"loss"`
	Churn    float64     `json:"churn,omitempty"`
	// Drift is the total data-distribution walk, as a domain fraction
	// (0: stationary).
	Drift float64 `json:"drift,omitempty"`
	// NoReindex freezes the first index (negative polarity so the
	// zero value — and every pre-dynamics baseline artifact — means
	// "reindexing on", the protocol default).
	NoReindex bool `json:"noReindex,omitempty"`
	// AggMix is the aggregate fraction of the query stream (0: pure
	// tuple workload, the pre-agg default).
	AggMix float64 `json:"aggMix,omitempty"`
	// Faults names the injected fault scenario, resolved through
	// dynamics.FaultScenario ("": fault-free).
	Faults string `json:"faults,omitempty"`
	// Retry arms the query reliability layer (deadline retries plus
	// summary degradation, DESIGN.md §19); false is the pre-§19
	// default.
	Retry bool `json:"retry,omitempty"`
	// NodePct switches to node-list queries over this fraction of the
	// nodes (Figure 4; 0: value-range queries).
	NodePct float64 `json:"nodePct,omitempty"`
	// QueryInterval and SampleInterval override the grid's (0: the
	// grid's value).
	QueryInterval  netsim.Time `json:"queryInterval,omitempty"`
	SampleInterval netsim.Time `json:"sampleInterval,omitempty"`
	Source         string      `json:"source"`
}

// Key returns the cell's stable identity, independent of its index —
// the join key Diff matches artifact cells on. Components after the
// source appear only when non-default, so keys from artifacts older
// than a field still match their cells.
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
	if c.NodePct != 0 {
		k += fmt.Sprintf("/nodes%g", c.NodePct)
	}
	if c.QueryInterval != 0 {
		k += fmt.Sprintf("/query%gs", float64(c.QueryInterval)/float64(netsim.Second))
	}
	if c.SampleInterval != 0 {
		k += fmt.Sprintf("/sample%gs", float64(c.SampleInterval)/float64(netsim.Second))
	}
	return k
}

// scoopOnly reports whether the cell sets a field only the Scoop policy
// has a mechanism for: an adaptive loop to freeze, a query planner for
// aggregate mixes, a query reliability layer for faults and retries to
// exercise. On a comparator such a cell would repeat the plain cell
// under a misleading key, so Cells omits it.
func (c Cell) scoopOnly() bool {
	return c.NoReindex || c.AggMix > 0 || c.Faults != "" || c.Retry
}

// field is one artifact key of a struct type: its JSON name and index
// path, embedded structs flattened in place and `json:"-"` fields
// (wall-clock probes) skipped.
type field struct {
	name  string
	index []int
}

func fieldsOf(t reflect.Type) []field {
	var out []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			for _, f := range fieldsOf(sf.Type) {
				out = append(out, field{f.name, append([]int{i}, f.index...)})
			}
		} else if name, _, _ := strings.Cut(sf.Tag.Get("json"), ","); name != "-" {
			out = append(out, field{name, []int{i}})
		}
	}
	return out
}

// cellFields are Cell's artifact keys, and resultFields CellResult's,
// in artifact order.
var (
	cellFields   = fieldsOf(reflect.TypeFor[Cell]())
	resultFields = fieldsOf(reflect.TypeFor[CellResult]())
)

func lookup(fields []field, name string) (field, bool) {
	for _, f := range fields {
		if f.name == name {
			return f, true
		}
	}
	return field{}, false
}

// shorthand is the Axis a named Grid axis stands for: its values, or
// the field's default alone when it is empty.
func shorthand[T any](name string, values []T, def T) Axis {
	if len(values) == 0 {
		values = []T{def}
	}
	a := Axis{Field: name}
	for _, v := range values {
		raw, _ := json.Marshal(v) // plain strings and numbers: cannot fail
		a.Values = append(a.Values, raw)
	}
	return a
}

// axes normalises the grid into its one axis list, in enumeration
// order. A field may be given once: by its named axis or in Axes.
func (g Grid) axes() ([]Axis, error) {
	inAxes := make(map[string]bool, len(g.Axes))
	for _, a := range g.Axes {
		if inAxes[a.Field] {
			return nil, fmt.Errorf("sweep: axis %q given twice", a.Field)
		}
		inAxes[a.Field] = true
	}
	var out []Axis
	var err error
	named := func(a Axis, given int) {
		switch {
		case inAxes[a.Field] && given > 0:
			err = fmt.Errorf("sweep: axis %q given twice, by name and in axes", a.Field)
		case !inAxes[a.Field]:
			out = append(out, a)
		}
	}
	named(shorthand("policy", g.Policies, policy.Scoop), len(g.Policies))
	named(shorthand("topology", g.Topologies, "uniform"), len(g.Topologies))
	named(shorthand("n", g.Sizes, 63), len(g.Sizes))
	named(shorthand("loss", g.LossRates, 0.0), len(g.LossRates))
	named(shorthand("churn", g.ChurnRates, 0.0), len(g.ChurnRates))
	out = append(out, g.Axes...)
	named(shorthand("source", g.Sources, "real"), len(g.Sources))
	return out, err
}

// resolved is an Axis bound to Cell: the field's index path and each
// value decoded into it.
type resolved struct {
	Axis
	index  []int
	values []reflect.Value
}

// resolve decodes every value of a onto a Cell as the object
// {"<field>": <value>}, so a value is spelt as in an artifact and an
// unknown field is refused.
func resolve(a Axis) (resolved, error) {
	f, ok := lookup(cellFields, a.Field)
	if !ok || a.Field == "index" {
		return resolved{}, fmt.Errorf("sweep: axis on unknown cell field %q", a.Field)
	}
	if len(a.Values) == 0 {
		return resolved{}, fmt.Errorf("sweep: axis %q has no values", a.Field)
	}
	r := resolved{Axis: a, index: f.index}
	for _, raw := range a.Values {
		var c Cell
		obj := fmt.Appendf(nil, `{%q: %s}`, a.Field, raw)
		if err := decode(obj, &c); err != nil {
			return resolved{}, fmt.Errorf("sweep: axis %q: value %s: %w", a.Field, raw, err)
		}
		r.values = append(r.values, reflect.ValueOf(c).FieldByIndex(f.index))
	}
	return r, nil
}

// Cells expands the grid's cross-product in deterministic order (see
// Grid), omitting a comparator's scoopOnly cells. A grid ReadGrid or
// Run would refuse expands to no cells.
func (g Grid) Cells() []Cell {
	cells, _ := g.cells()
	return cells
}

// cells is Cells, refusing a grid whose axes or tables do not fit
// Cell and CellResult.
func (g Grid) cells() ([]Cell, error) {
	list, err := g.axes()
	if err != nil {
		return nil, err
	}
	axes := make([]resolved, len(list))
	product := 1
	for i, a := range list {
		if axes[i], err = resolve(a); err != nil {
			return nil, err
		}
		product *= len(axes[i].values)
	}
	cells := make([]Cell, 0, product)
	for i := 0; i < product; i++ {
		// Count in mixed radix, the innermost axis the fastest digit.
		r := i
		var c Cell
		cv := reflect.ValueOf(&c).Elem()
		for k := len(axes) - 1; k >= 0; k-- {
			a := axes[k]
			cv.FieldByIndex(a.index).Set(a.values[r%len(a.values)])
			r /= len(a.values)
		}
		if c.Policy != policy.Scoop && c.scoopOnly() {
			continue
		}
		c.Index = len(cells)
		cells = append(cells, c)
	}
	for _, t := range g.Tables {
		if err := t.check(cells); err != nil {
			return nil, err
		}
	}
	return cells, nil
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
	// A zero value defers to the next: the cell's, the grid's,
	// exp.Default's.
	cfg.Duration = cmp.Or(g.Duration, cfg.Duration)
	cfg.Warmup = cmp.Or(g.Warmup, cfg.Warmup)
	cfg.SampleInterval = cmp.Or(c.SampleInterval, g.SampleInterval, cfg.SampleInterval)
	cfg.QueryInterval = cmp.Or(c.QueryInterval, g.QueryInterval)
	cfg.NodePct = cmp.Or(c.NodePct, cfg.NodePct)
	cfg.Trials = g.Trials // exp.Run reads 0 as 1
	cfg.Seed = CellSeed(g.Seed, c.Index)
	if g.SharedSeed {
		cfg.Seed = g.Seed
	}
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

	// Root load (mean per trial, beacons excluded) and the energy
	// report's extrapolated lifetimes (metrics.EnergyReport): the
	// average node's and the root's joules and days, and the share of
	// the average node's energy spent on the radio.
	RootSent   float64 `json:"rootSent"`
	RootRecv   float64 `json:"rootRecv"`
	NodeJ      float64 `json:"nodeJ"`
	NodeDays   float64 `json:"nodeDays"`
	RootJ      float64 `json:"rootJ"`
	RootDays   float64 `json:"rootDays"`
	CommsShare float64 `json:"commsShare"`

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

	// Reindex cost probe (core.RunStats, summed across the cell's
	// trials): the index rebuilds the basestation ran and their wall
	// time. Operator visibility only — like WallMS these stay out of
	// the JSON artifact, both because ReindexWallMS is machine-dependent
	// and so pre-overhaul baselines remain byte-comparable.
	ReindexBuilds int64   `json:"-"`
	ReindexWallMS float64 `json:"-"`
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
	// A cell runs its trials in order on its worker (exp.Run).
	Parallel int
	// Progress, when non-nil, is called once per finished cell, from
	// the worker goroutine that ran it.
	Progress func(CellResult)
}

// plan expands the grid and assembles every cell's configuration,
// refusing the whole grid on the first cell that does not validate.
func (g Grid) plan() ([]Cell, []exp.Config, error) {
	cells, err := g.cells()
	if err != nil {
		return nil, nil, err
	}
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

		RootSent:   res.RootSent,
		RootRecv:   res.RootRecv,
		NodeJ:      res.Energy.AvgNodeJ,
		NodeDays:   res.Energy.AvgNodeDays,
		RootJ:      res.Energy.RootJ,
		RootDays:   res.Energy.RootDays,
		CommsShare: res.Energy.CommsFraction,

		WallMS: float64(time.Since(start)) / float64(time.Millisecond),

		ReindexBuilds: res.Stats.IndexesBuilt,
		ReindexWallMS: float64(res.Stats.ReindexWallNanos) / 1e6,
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
