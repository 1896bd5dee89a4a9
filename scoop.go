// Package scoop is a full reimplementation of Scoop, the adaptive
// indexing scheme for stored data in sensor networks by Gil & Madden
// (ICDE 2007 / MIT-CSAIL-TR-2006-077), together with the substrate it
// needs to run: a packet-level wireless network simulator, a
// Woo-style routing tree, Trickle dissemination, summary histograms,
// the cost-based storage-index construction algorithm, and the
// comparator storage policies (LOCAL, BASE, HASH) from the paper's
// evaluation.
//
// NewSimulation is the entry point: step-by-step control over one
// simulated network — advance virtual time, issue queries, inspect the
// storage index. The package's examples walk through it, and go test
// checks what they print. A Simulation is trial 0 of an internal/exp
// experiment stepped by hand, so its defaults, bounds and seeding are
// exp.Default()'s and exp's. Whole policy × workload experiments, the
// unit of the paper's figures, are commands: cmd/scoopsim runs one,
// cmd/scoopsweep a grid of them.
//
// All radio, protocol and workload behaviour lives in internal/
// packages; this package is the stable facade.
package scoop

import (
	"math"
	"time"

	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/workload"
)

// Policy selects a storage policy.
type Policy string

// Storage policies. PolicyHash is the paper's analytical GHT-style
// baseline; PolicyHashSim is this implementation's fully simulated
// extension of it.
const (
	PolicyScoop   Policy = "scoop"
	PolicyLocal   Policy = "local"
	PolicyBase    Policy = "base"
	PolicyHash    Policy = "hash"
	PolicyHashSim Policy = "hashsim"
)

// Source selects a sensor-data workload from the paper's evaluation.
type Source string

// Data sources (paper §6).
const (
	SourceReal     Source = "real"
	SourceUnique   Source = "unique"
	SourceEqual    Source = "equal"
	SourceRandom   Source = "random"
	SourceGaussian Source = "gaussian"
)

// Topology selects a node layout.
type Topology string

// Topologies: Uniform is the paper's simulated layout, Testbed models
// the 62-node office-floor deployment, Grid is a jittered lab grid.
const (
	TopologyUniform Topology = "uniform"
	TopologyTestbed Topology = "testbed"
	TopologyGrid    Topology = "grid"
)

// Breakdown reports transmissions by message class, the paper's cost
// metric (routing-tree beacons are accounted separately since every
// policy pays them equally).
type Breakdown struct {
	Data    float64
	Summary float64
	Mapping float64
	Query   float64
	Reply   float64
	Beacon  float64
}

// Total returns the comparison-metric total (beacons excluded), as in
// the paper's figures.
func (b Breakdown) Total() float64 {
	return b.Data + b.Summary + b.Mapping + b.Query + b.Reply
}

// ExperimentResult summarises a simulation's outcome so far.
type ExperimentResult struct {
	Breakdown Breakdown

	// Delivery statistics.
	Produced        int64
	StoredUnique    int64
	StoredLocal     int64   // readings stored by their producer
	DataSuccess     float64 // fraction of readings durably stored
	OwnerHitRate    float64 // routed readings reaching their owner
	QuerySuccess    float64 // targeted nodes whose replies arrived
	QueriesIssued   int64
	TuplesReturned  int64
	IndexesBuilt    int64
	IndexSuppressed int64
}

// vt converts wall-style durations to virtual simulator time.
func vt(d time.Duration) netsim.Time { return netsim.Time(d.Milliseconds()) }

// Reading is one stored sensor sample returned by queries.
type Reading struct {
	Node  int       // producing node
	Value int       // attribute value
	At    time.Time // virtual timestamp, measured from the run start
}

// OwnerRange is one entry of the active storage index.
type OwnerRange struct {
	Lo, Hi int
	Owner  int
}

// SimulationConfig configures a hand-driven simulation. A zero field
// keeps exp.Default()'s value: the paper's §6 run of 62 motes plus the
// base on the uniform layout, REAL data, the Scoop policy, 15 s
// sampling and a 10-minute warm-up.
type SimulationConfig struct {
	Source   Source
	Topology Topology
	Nodes    int
	Policy   Policy
	Warmup   time.Duration // sampling starts after this
	Seed     int64

	// SampleInterval must be at least the simulator's 1 ms tick.
	SampleInterval time.Duration
	// Sampler, when non-nil, overrides Source with a custom per-node
	// value function (e.g. a domain-specific signal). It receives the
	// node ID and the virtual elapsed time.
	Sampler func(node int, elapsed time.Duration) int
	// Domain bounds the attribute values when Sampler is set
	// (inclusive, lo < hi); ignored otherwise.
	DomainLo, DomainHi int
}

// Simulation is a single simulated Scoop network under manual control:
// trial 0 of an exp experiment, stepped by hand. It is not safe for
// concurrent use.
type Simulation struct {
	tr *exp.Trial
}

// NewSimulation builds a network ready to run from exp.Default() and
// cfg's non-zero fields, with the harness's query ticker off: queries
// are the caller's. Its errors are exp.Config.Validate's.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	c := exp.Default()
	c.Seed = cfg.Seed
	c.QueryInterval = 0
	// Duration bounds only the harness's own tickers, which stay off;
	// the run lasts as long as the caller steps it.
	c.Duration = math.MaxInt64
	if cfg.Nodes != 0 {
		c.N = cfg.Nodes
	}
	if cfg.Source != "" {
		c.Source = string(cfg.Source)
	}
	if cfg.Topology != "" {
		c.Topology = string(cfg.Topology)
	}
	if cfg.Policy != "" {
		c.Policy = policy.Name(cfg.Policy)
	}
	if cfg.Warmup != 0 {
		c.Warmup = vt(cfg.Warmup)
	}
	if cfg.SampleInterval != 0 {
		c.SampleInterval = vt(cfg.SampleInterval)
	}
	if cfg.Sampler != nil {
		c.Sampler = clampSampler{cfg.Sampler, cfg.DomainLo, cfg.DomainHi}
	}
	tr, err := exp.NewTrial(c, 0, nil)
	if err != nil {
		return nil, err
	}
	return &Simulation{tr: tr}, nil
}

// clampSampler is SimulationConfig.Sampler as a workload source, its
// values clamped into the configured domain.
type clampSampler struct {
	fn     func(node int, elapsed time.Duration) int
	lo, hi int
}

func (s clampSampler) Next(id netsim.NodeID, now netsim.Time) int {
	return min(max(s.fn(int(id), time.Duration(now)*time.Millisecond), s.lo), s.hi)
}

func (s clampSampler) Domain() (int, int) { return s.lo, s.hi }

func (s clampSampler) Name() string { return "custom" }

func (s *Simulation) now() netsim.Time { return s.tr.Network().Sim.Now() }

// Run advances virtual time by d.
func (s *Simulation) Run(d time.Duration) {
	s.tr.Run(s.now() + vt(d))
}

// Elapsed returns the virtual time since the simulation started.
func (s *Simulation) Elapsed() time.Duration {
	return time.Duration(s.now()) * time.Millisecond
}

// QueryResult reports one query's outcome.
type QueryResult struct {
	Targets  int       // nodes the basestation contacted
	Tuples   int       // total matches reported (counts, not payloads)
	Readings []Reading // tuples actually carried back (replies are capped)
}

// QueryValues asks for readings with values in [lo,hi] sampled within
// the trailing `window` of virtual time, then runs the network for
// `wait` to let replies arrive.
func (s *Simulation) QueryValues(lo, hi int, window, wait time.Duration) QueryResult {
	return s.query(workload.Query{ValueLo: lo, ValueHi: hi}, window, wait)
}

// QueryNodes asks the listed nodes for their readings within the
// trailing window, waiting `wait` for replies.
func (s *Simulation) QueryNodes(nodes []int, window, wait time.Duration) QueryResult {
	ids := make([]netsim.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = netsim.NodeID(n)
	}
	return s.query(workload.Query{Nodes: ids, ValueLo: 1, ValueHi: 0}, window, wait)
}

func (s *Simulation) query(q workload.Query, window, wait time.Duration) QueryResult {
	base := s.tr.Base()
	q.TimeLo, q.TimeHi = max(s.now()-vt(window), 0), s.now()
	before := s.tr.Stats().TuplesReturned
	tg := base.IssueQuery(q)
	qid := base.LastQueryID()
	s.Run(wait)
	raw := base.QueryResults(qid)
	readings := make([]Reading, len(raw))
	for i, r := range raw {
		readings[i] = Reading{
			Node:  int(r.Producer),
			Value: r.Value,
			At:    time.Time{}.Add(time.Duration(r.Time) * time.Millisecond),
		}
	}
	return QueryResult{
		Targets:  len(tg),
		Tuples:   int(s.tr.Stats().TuplesReturned - before),
		Readings: readings,
	}
}

// QueryMax answers "largest value observed in the trailing window"
// from stored summaries at zero network cost (paper §5.5).
func (s *Simulation) QueryMax(window time.Duration) (int, bool) {
	return s.tr.Base().QueryMax(max(s.now()-vt(window), 0), s.now())
}

// IndexRanges returns the active storage index as owner ranges, or nil
// before the first index (or under a store-local index).
func (s *Simulation) IndexRanges() []OwnerRange {
	ix := s.tr.Base().CurrentIndex()
	if ix == nil || ix.Local {
		return nil
	}
	out := make([]OwnerRange, len(ix.Entries))
	for i, e := range ix.Entries {
		out[i] = OwnerRange{Lo: e.Lo, Hi: e.Hi, Owner: int(e.Owner)}
	}
	return out
}

// Messages returns the current transmission breakdown.
func (s *Simulation) Messages() Breakdown {
	b := s.tr.Network().CountersBreakdown()
	return Breakdown{Data: b.Data, Summary: b.Summary, Mapping: b.Mapping,
		Query: b.Query, Reply: b.Reply, Beacon: b.Beacon}
}

// Stats summarises delivery outcomes so far.
func (s *Simulation) Stats() ExperimentResult {
	st := s.tr.Stats()
	return ExperimentResult{
		Breakdown:       s.Messages(),
		Produced:        st.Produced,
		StoredUnique:    st.StoredUnique,
		StoredLocal:     st.StoredLocal,
		DataSuccess:     st.DataSuccessRate(),
		OwnerHitRate:    st.OwnerHitRate(),
		QuerySuccess:    st.QuerySuccessRate(),
		QueriesIssued:   st.QueriesIssued,
		TuplesReturned:  st.TuplesReturned,
		IndexesBuilt:    st.IndexesBuilt,
		IndexSuppressed: st.IndexesSuppressed,
	}
}

// KillNode fails a node (it stops sending and receiving), for
// failure-injection scenarios.
func (s *Simulation) KillNode(id int) { s.tr.Network().Kill(netsim.NodeID(id)) }

// ReviveNode brings a failed node back with whatever protocol state
// it retained; timers that lapsed while it was dead stay silent. For
// a realistic rejoin, use RestartNode.
func (s *Simulation) ReviveNode(id int) { s.tr.Network().Revive(netsim.NodeID(id)) }

// RestartNode reboots a failed node: it rejoins with fresh protocol
// state (routing table, storage index, buffers), like a power-cycled
// mote. This is what churn-injection scenarios use.
func (s *Simulation) RestartNode(id int) { s.tr.Network().Restart(netsim.NodeID(id)) }

// Nodes returns the network size including the basestation.
func (s *Simulation) Nodes() int { return s.tr.Network().Topo.N }
