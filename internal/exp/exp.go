// Package exp is the experiment harness: it assembles a topology, a
// radio network, a workload and a storage policy into a runnable
// trial, and repeats trials in order.
package exp

import (
	"fmt"
	"math"
	"slices"

	"scoop/internal/core"
	"scoop/internal/dynamics"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/prof"
	"scoop/internal/query"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// Config describes one experiment cell (a policy × workload × sweep
// point). Zero value is unusable; start from Default.
type Config struct {
	Policy   policy.Name
	Source   string // workload source name
	N        int    // network size including the basestation
	Topology string // "uniform" (paper's simulation), "testbed", "grid"

	// Sampler, when non-nil, replaces the source Source names with a
	// caller's own (the scoop facade's custom signal). Its domain must
	// hold at least two values.
	Sampler workload.Source

	Duration netsim.Time // total run length (paper: 40 min)
	Warmup   netsim.Time // tree-stabilisation period (paper: 10 min)

	SampleInterval netsim.Time // paper: 15 s
	QueryInterval  netsim.Time // paper: 15 s; 0 disables queries
	// NodePct, when >= 0, switches to node-list queries over this
	// fraction of nodes (the Figure 4 sweep); < 0 uses value-range
	// queries of 1–5% of the domain (the paper's default).
	NodePct float64

	// QueryWidth, when > 0, fixes every value-range query's width to
	// this fraction of the domain instead of the paper's random 1–5%.
	// Wide ranges produce the large result sets where in-network
	// aggregation pays off.
	QueryWidth float64

	// AggRatio, in [0,1], lifts this fraction of value-range queries
	// into aggregate queries (COUNT/SUM/AVG/MIN/MAX/quantile rotation)
	// answered by the cost-based query planner. 0 keeps the pure
	// tuple-return workload. Ignored for node-list workloads and the
	// BASE policy (whose queries are free at the basestation).
	AggRatio float64
	// AggErrBudget is the relative accuracy budget attached to every
	// aggregate query; generous budgets let the planner answer from
	// retained summaries at zero radio cost.
	AggErrBudget float64
	// AggForce pins the aggregate planner's physical plan (ablation
	// figures); query.PlanAuto lets it choose per query.
	AggForce query.Plan
	// AggOps overrides the aggregate-operator rotation (nil: the
	// default COUNT/SUM/AVG/MIN/MAX/quantile cycle). Plan-comparison
	// figures restrict it to the exactly-mergeable operators so
	// summary-only quantiles don't force floods into every variant.
	AggOps []query.Op

	// LinkLoss, in [0,1), degrades every directed link's delivery
	// probability by this fraction for the whole run, modelling a
	// network-wide interference floor on top of the topology's
	// per-link qualities. 0 is the paper's radio model.
	LinkLoss float64

	// Dynamics, when non-nil, is a timeline of mid-run perturbations
	// — node churn, loss ramps, data/query drift — scheduled into
	// every trial (each trial applies the same script; churn scripts
	// should be built from the cell seed so runs stay reproducible).
	Dynamics *dynamics.Script

	// Faults, when non-empty, names a dynamics.FaultScenario (regional
	// blackout, partition, correlated burst loss, basestation restart,
	// or the composed "campaign") resolved per trial from the trial
	// seed and appended to Dynamics — the reliability campaign's fault
	// axis (DESIGN.md §19).
	Faults string

	// QueryDeadline, when > 0, enables the basestation's query
	// reliability layer (deadline retries with narrowed bitmaps,
	// terminal verdicts, graceful degradation — DESIGN.md §19);
	// QueryRetryMax caps re-issues per query. Both map straight onto
	// the core.Config knobs of the same names.
	QueryDeadline netsim.Time
	QueryRetryMax int

	// ReindexInterval overrides how often the basestation rebuilds
	// the storage index from fresh statistics and redisseminates it
	// (the adaptive epoch length; core default 240 s). 0 keeps the
	// default.
	ReindexInterval netsim.Time
	// DisableReindex freezes the storage index after its first build:
	// the basestation still constructs and disseminates one index
	// from post-warm-up statistics, but never adapts it again — the
	// ablation that shows what the adaptive loop buys under drift and
	// churn.
	DisableReindex bool

	// WindowInterval is the transition-metrics sampling width: run
	// statistics are snapshotted into fixed windows of this length
	// (starting after warm-up) so reconvergence and during/after
	// delivery can be computed. 0 defaults to 30 s when Dynamics is
	// set and disables the timeline otherwise.
	WindowInterval netsim.Time

	// Regions is read by nothing: every value runs the one serial
	// event loop. The field stays because the benchmark module
	// compiles against it; Validate still refuses a negative value.
	Regions int

	Trials int
	Seed   int64

	// Trace switches on the flight recorder: every trial gets its own
	// trace.Recorder clocked by the trial's simulator, threaded
	// through the network, the protocol stack and the dynamics
	// scheduler, and handing its events to the TraceSinks of the
	// trial. Validate rejects Trace without TraceSinks.
	Trace bool
	// TraceSinks builds the sink set for one trial (called once per
	// trial, in trial order). Returning an empty set disables tracing
	// for that trial — the usual way to trace only trial 0 of a
	// multi-trial cell. Ignored unless Trace.
	TraceSinks func(trial int) []trace.Sink

	// Profile attaches a wall-clock attribution profiler to every
	// trial's event loop and protocol hot paths (internal/prof,
	// DESIGN.md §17). The snapshot lands in TrialResult.Prof.
	// Profiling is observation-only: simulation outcomes are
	// byte-identical with it on or off.
	Profile bool
}

// ForceInvariants attaches the whole-run invariant checker to every
// trial in the process: conservation of readings, no aggregate
// double-count, index-generation monotonicity. The checker is one more
// sink of the trial's flight recorder, which a trial without a trace
// then gets for the checker alone. A violation fails the run with a
// descriptive error. A test binary sets it from one TestMain so the
// whole suite's runs are conservation-clean, and the benchmark sets it
// for its check runs. Set it before the first Run; it keeps
// per-reading state, so never set it in production binaries or
// artifact sweeps.
var ForceInvariants bool

// Default returns the paper's default parameters (§6 table): 62 nodes
// + base, REAL data, 15 s sample and query intervals, 40-minute runs
// with a 10-minute warm-up, 3 trials.
func Default() Config {
	return Config{
		Policy:         policy.Scoop,
		Source:         "real",
		N:              63,
		Topology:       "uniform",
		Duration:       40 * netsim.Minute,
		Warmup:         10 * netsim.Minute,
		SampleInterval: 15 * netsim.Second,
		QueryInterval:  15 * netsim.Second,
		NodePct:        -1,
		Trials:         3,
		Seed:           1,
	}
}

// Validate rejects configurations that would otherwise yield silent
// nonsense runs (a negative loss rate, a warm-up longer than the run)
// or fail inside a trial (a network past netsim.MaxNodes, a
// misspelt policy, source or topology). Run calls it; drivers building
// configs by hand can call it early.
func (c Config) Validate() error {
	if c.N < 2 || c.N > netsim.MaxNodes {
		return fmt.Errorf("exp: network size %d outside [2,%d] (the basestation plus at least one node, up to the simulator's bound)", c.N, netsim.MaxNodes)
	}
	if !slices.Contains(policy.Names(), c.Policy) {
		return fmt.Errorf("exp: unknown policy %q (want one of %v)", c.Policy, policy.Names())
	}
	if !slices.Contains(workload.SourceNames(), c.Source) {
		return fmt.Errorf("exp: unknown source %q (want one of %v)", c.Source, workload.SourceNames())
	}
	if c.Sampler != nil {
		if lo, hi := c.Sampler.Domain(); hi <= lo {
			return fmt.Errorf("exp: sampler domain [%d,%d] needs lo < hi", lo, hi)
		}
	}
	if _, err := netsim.Layout(c.Topology); err != nil {
		return err
	}
	if c.LinkLoss < 0 || c.LinkLoss >= 1 {
		return fmt.Errorf("exp: link loss %v outside [0,1)", c.LinkLoss)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("exp: non-positive duration %v", c.Duration)
	}
	if c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("exp: warmup %v must lie in [0, duration %v)", c.Warmup, c.Duration)
	}
	if c.SampleInterval <= 0 {
		return fmt.Errorf("exp: non-positive sample interval %v", c.SampleInterval)
	}
	if c.QueryInterval < 0 {
		return fmt.Errorf("exp: negative query interval %v", c.QueryInterval)
	}
	if c.NodePct > 1 {
		return fmt.Errorf("exp: node-query fraction %v exceeds 1", c.NodePct)
	}
	if c.QueryWidth < 0 || c.QueryWidth > 1 {
		return fmt.Errorf("exp: query width %v outside [0,1]", c.QueryWidth)
	}
	if c.AggRatio < 0 || c.AggRatio > 1 {
		return fmt.Errorf("exp: aggregate ratio %v outside [0,1]", c.AggRatio)
	}
	if c.AggErrBudget < 0 {
		return fmt.Errorf("exp: negative aggregate error budget %v", c.AggErrBudget)
	}
	if c.AggForce > query.PlanFlood {
		return fmt.Errorf("exp: unknown forced plan %d", c.AggForce)
	}
	if c.ReindexInterval < 0 {
		return fmt.Errorf("exp: negative reindex interval %v", c.ReindexInterval)
	}
	if c.WindowInterval < 0 {
		return fmt.Errorf("exp: negative window interval %v", c.WindowInterval)
	}
	if c.Regions < 0 {
		return fmt.Errorf("exp: negative region count %d", c.Regions)
	}
	if c.QueryDeadline < 0 {
		return fmt.Errorf("exp: negative query deadline %v", c.QueryDeadline)
	}
	if c.QueryRetryMax < 0 {
		return fmt.Errorf("exp: negative query retry budget %d", c.QueryRetryMax)
	}
	if c.Trials < 0 {
		return fmt.Errorf("exp: negative trial count %d", c.Trials)
	}
	if c.Trace && c.TraceSinks == nil {
		return fmt.Errorf("exp: Trace needs TraceSinks")
	}
	if c.QueryInterval > 0 {
		// Every query tick and every deadline retry takes the next
		// 16-bit wire ID from the basestation's one counter; past 65 535
		// the IDs wrap and queries settle twice.
		ticks := int64((c.Duration - c.Warmup) / c.QueryInterval)
		var retries int64
		if c.QueryDeadline > 0 {
			retries = int64(c.QueryRetryMax)
		}
		if ticks > 0 && retries >= math.MaxUint16/ticks { // ticks·(1+retries) > MaxUint16
			return fmt.Errorf("exp: %d queries of up to %d attempts each exhaust the basestation's %d query IDs",
				ticks, retries+1, math.MaxUint16)
		}
	}
	if c.Faults != "" {
		// Resolve once with the base seed purely to validate the name
		// and shape; trials re-resolve with their own seeds.
		if _, err := dynamics.FaultScenario(c.Faults, c.N, c.Warmup, c.Duration, c.Seed); err != nil {
			return err
		}
	}
	return c.Dynamics.Validate(c.N, c.Duration)
}

// AggEval accounts the aggregate query engine's end-to-end quality
// for one trial: how many aggregates were issued and answered, and the
// summed absolute relative error against ground truth (computed by
// scanning every store at issue time). The planner's decisions are
// RunStats.Plan*Chosen.
type AggEval struct {
	Issued   int
	Answered int
	ErrSum   float64
}

// MeanErr returns the mean absolute relative answer error.
func (e AggEval) MeanErr() float64 {
	if e.Answered == 0 {
		return 0
	}
	return e.ErrSum / float64(e.Answered)
}

func (e *AggEval) add(o AggEval) {
	e.Issued += o.Issued
	e.Answered += o.Answered
	e.ErrSum += o.ErrSum
}

// TrialResult captures one trial's outcome.
type TrialResult struct {
	Breakdown metrics.Breakdown
	Stats     core.RunStats
	RootSent  int64 // root transmissions (non-beacon)
	RootRecv  int64 // root receptions (non-beacon)
	Energy    metrics.EnergyReport
	// Timeline holds windowed transition metrics and perturbation
	// marks; empty unless the config enabled windowed sampling.
	Timeline metrics.Timeline
	// Agg holds aggregate-engine accounting (zero when AggRatio is 0).
	Agg AggEval
	// Per-class sent bytes on the reply path, for bytes-per-answer
	// comparisons across physical plans.
	ReplyBytes    int64
	AggReplyBytes int64
	// Prof holds the wall-clock attribution snapshot when the config
	// enabled profiling.
	Prof *prof.Snapshot
}

// Result aggregates an experiment cell: the mean of each per-trial
// figure, or the sum for Stats and Agg. Energy's MostLoaded pair names
// one trial's node and stays on PerTrial.
type Result struct {
	Config    Config
	PerTrial  []TrialResult
	Breakdown metrics.Breakdown
	Stats     core.RunStats
	RootSent  float64
	RootRecv  float64
	Energy    metrics.EnergyReport
	Agg       AggEval
	// Per-class sent bytes on the reply path.
	ReplyBytes    float64
	AggReplyBytes float64
}

// Run executes the experiment: Trials independent simulations, run one
// after another on the caller's goroutine (each with its own
// simulator, counters and RNG streams), whose results are averaged. It
// stops at the first trial that fails and returns its error. Trials 0
// runs one; Result.Config holds the count that ran.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.Trials = max(cfg.Trials, 1)
	res := Result{Config: cfg, PerTrial: make([]TrialResult, cfg.Trials)}
	for t := range cfg.Trials {
		tr, err := NewTrial(cfg, t, nil)
		if err != nil {
			return Result{}, err
		}
		tr.Run(cfg.Duration)
		if res.PerTrial[t], err = tr.Finish(); err != nil {
			return Result{}, err
		}
	}
	var sum metrics.Breakdown
	for _, tr := range res.PerTrial {
		sum = sum.Add(tr.Breakdown)
		res.Stats.Add(&tr.Stats)
		res.Agg.add(tr.Agg)
		res.ReplyBytes += float64(tr.ReplyBytes)
		res.AggReplyBytes += float64(tr.AggReplyBytes)
		res.RootSent += float64(tr.RootSent)
		res.RootRecv += float64(tr.RootRecv)
		res.Energy.AvgNodeJ += tr.Energy.AvgNodeJ
		res.Energy.RootJ += tr.Energy.RootJ
		res.Energy.AvgNodeDays += tr.Energy.AvgNodeDays
		res.Energy.RootDays += tr.Energy.RootDays
		res.Energy.CommsFraction += tr.Energy.CommsFraction
		res.Energy.TotalNetworkJ += tr.Energy.TotalNetworkJ
	}
	f := 1.0 / float64(cfg.Trials)
	res.Breakdown = sum.Scale(f)
	res.ReplyBytes *= f
	res.AggReplyBytes *= f
	res.RootSent *= f
	res.RootRecv *= f
	res.Energy.AvgNodeJ *= f
	res.Energy.RootJ *= f
	res.Energy.AvgNodeDays *= f
	res.Energy.RootDays *= f
	res.Energy.CommsFraction *= f
	res.Energy.TotalNetworkJ *= f
	return res, nil
}

// windowInterval resolves the effective transition-metrics sampling
// width: the explicit setting, or 30 s when a dynamics script is
// present, else 0 (no timeline).
func (c Config) windowInterval() netsim.Time {
	if c.WindowInterval > 0 {
		return c.WindowInterval
	}
	if !c.Dynamics.Empty() || c.Faults != "" {
		return 30 * netsim.Second
	}
	return 0
}

// source returns the data source the motes sample: Sampler when set,
// else the one Source names, drawing from seed.
func (c Config) source(seed int64) (workload.Source, error) {
	if c.Sampler != nil {
		return c.Sampler, nil
	}
	return workload.NewSource(c.Source, c.N, seed)
}

// DeriveHash evaluates the paper's HASH the way the paper does
// ("we evaluate the cost of this HASH approach analytically"), over the
// topologies and workload volume of base, a BASE Result from Run. The
// pure ETX model knows nothing of retransmissions, collisions or queue
// drops, so each trial's analytical cost is scaled by that trial's
// measured BASE data cost over the model's own: the radio inflation the
// paper's analytical HASH met inside its simulator. The model prices
// value-range queries of the paper's 1–5% widths; NodePct and
// QueryWidth are not modelled. The result's Config is base's, and its
// trials carry a Breakdown only.
func DeriveHash(base Result) (Result, error) {
	cfg := base.Config
	if cfg.Policy != policy.Base {
		return Result{}, fmt.Errorf("exp: the analytical hash derives from a base run, not %q", cfg.Policy)
	}
	src, err := cfg.source(cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	lo, hi := src.Domain()
	active := cfg.Duration - cfg.Warmup
	w := policy.HashWorkload{
		SamplesPerNode: float64(active) / float64(cfg.SampleInterval),
		QueryWidth:     0.03 * float64(hi-lo+1), // mean of the 1–5% widths
	}
	if cfg.QueryInterval > 0 {
		w.Queries = float64(active) / float64(cfg.QueryInterval)
	}
	layout, err := netsim.Layout(cfg.Topology)
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg}
	var sum metrics.Breakdown
	for t, bt := range base.PerTrial {
		topo := layout(cfg.N, cfg.Seed+int64(t)*7919) // NewTrial's topology
		b := policy.AnalyticalHash(topo, w)
		if ab := policy.AnalyticalBaseData(topo, w); ab > 0 {
			b = b.Scale(bt.Breakdown.Data / ab)
		}
		res.PerTrial = append(res.PerTrial, TrialResult{Breakdown: b})
		sum = sum.Add(b)
	}
	res.Breakdown = sum.Scale(1.0 / float64(len(base.PerTrial)))
	return res, nil
}
