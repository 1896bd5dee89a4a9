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
// storage index — the API the runnable examples build on. Whole
// policy × workload experiments, the unit of the paper's figures, are
// commands: cmd/scoopsim runs one, cmd/scoopsweep a grid of them.
//
// All radio, protocol and workload behaviour lives in internal/
// packages; this package is the stable facade.
package scoop

import (
	"fmt"
	"time"

	"scoop/internal/core"
	"scoop/internal/metrics"
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

// SimulationConfig configures a hand-driven simulation.
type SimulationConfig struct {
	Source   Source
	Topology Topology
	Nodes    int
	Policy   Policy
	Warmup   time.Duration // sampling starts after this
	Seed     int64

	// SampleInterval defaults to the paper's 15 s when zero; it must be
	// at least the simulator's 1 ms tick.
	SampleInterval time.Duration
	// Sampler, when non-nil, overrides Source with a custom per-node
	// value function (e.g. a domain-specific signal). It receives the
	// node ID and the virtual elapsed time.
	Sampler func(node int, elapsed time.Duration) int
	// Domain bounds the attribute values when Sampler is set
	// (inclusive); ignored otherwise.
	DomainLo, DomainHi int
}

// Simulation is a single simulated Scoop network under manual control.
// It is not safe for concurrent use.
type Simulation struct {
	sim   *netsim.Simulator
	net   *netsim.Network
	ctr   *metrics.Counters
	base  *core.Base
	stats *core.RunStats
	n     int
	qseq  int64
}

// NewSimulation builds a network ready to run. Defaults: REAL source,
// uniform topology, 63 nodes, Scoop policy, 10-minute warmup.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 63
	}
	if cfg.Nodes < 2 || cfg.Nodes > netsim.MaxNodes {
		return nil, fmt.Errorf("scoop: node count %d outside [2,%d]", cfg.Nodes, netsim.MaxNodes)
	}
	if cfg.Source == "" {
		cfg.Source = SourceReal
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyScoop
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 10 * time.Minute
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 15 * time.Second
	}
	// exp.Config.Validate's bounds, on the virtual clock's 1 ms tick.
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("scoop: negative warmup %v", cfg.Warmup)
	}
	if vt(cfg.SampleInterval) <= 0 {
		return nil, fmt.Errorf("scoop: sample interval %v is under the simulator's 1 ms tick", cfg.SampleInterval)
	}
	layout, err := netsim.Layout(string(cfg.Topology))
	if err != nil {
		return nil, err
	}

	var sampler core.Sampler
	lo, hi := cfg.DomainLo, cfg.DomainHi
	if cfg.Sampler != nil {
		if hi <= lo {
			return nil, fmt.Errorf("scoop: custom sampler needs a domain [lo,hi]")
		}
		user := cfg.Sampler
		sampler = func(id netsim.NodeID, now netsim.Time) int {
			v := user(int(id), time.Duration(now)*time.Millisecond)
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
	} else {
		src, err := workload.NewSource(string(cfg.Source), cfg.Nodes, cfg.Seed+13)
		if err != nil {
			return nil, err
		}
		lo, hi = src.Domain()
		sampler = src.Next
	}

	ccfg, err := policy.Config(policy.Name(cfg.Policy), cfg.Nodes, lo, hi)
	if err != nil {
		return nil, err
	}
	ccfg.SampleInterval = vt(cfg.SampleInterval)

	s := &Simulation{
		sim:   netsim.NewSimulator(cfg.Seed ^ 0x53c00b),
		ctr:   metrics.NewCounters(),
		stats: &core.RunStats{},
		n:     cfg.Nodes,
	}
	s.net = netsim.NewNetwork(s.sim, layout(cfg.Nodes, cfg.Seed), s.ctr, netsim.DefaultParams())
	s.base = core.NewBase(ccfg, s.stats, vt(cfg.Warmup))
	s.net.Attach(0, s.base)
	for i := 1; i < cfg.Nodes; i++ {
		s.net.Attach(netsim.NodeID(i), core.NewNode(ccfg, s.stats, sampler, vt(cfg.Warmup)))
	}
	s.net.Start()
	return s, nil
}

// Run advances virtual time by d.
func (s *Simulation) Run(d time.Duration) {
	s.sim.Run(s.sim.Now() + vt(d))
}

// Elapsed returns the virtual time since the simulation started.
func (s *Simulation) Elapsed() time.Duration {
	return time.Duration(s.sim.Now()) * time.Millisecond
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
	tlo := s.sim.Now() - vt(window)
	if tlo < 0 {
		tlo = 0
	}
	q.TimeLo, q.TimeHi = tlo, s.sim.Now()
	before := s.stats.TuplesReturned
	tg := s.base.IssueQuery(q)
	qid := s.base.LastQueryID()
	s.Run(wait)
	raw := s.base.QueryResults(qid)
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
		Tuples:   int(s.stats.TuplesReturned - before),
		Readings: readings,
	}
}

// QueryMax answers "largest value observed in the trailing window"
// from stored summaries at zero network cost (paper §5.5).
func (s *Simulation) QueryMax(window time.Duration) (int, bool) {
	tlo := s.sim.Now() - vt(window)
	if tlo < 0 {
		tlo = 0
	}
	return s.base.QueryMax(tlo, s.sim.Now())
}

// IndexRanges returns the active storage index as owner ranges, or nil
// before the first index (or under a store-local index).
func (s *Simulation) IndexRanges() []OwnerRange {
	ix := s.base.CurrentIndex()
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
	b := s.ctr.Snapshot()
	return Breakdown{Data: b.Data, Summary: b.Summary, Mapping: b.Mapping,
		Query: b.Query, Reply: b.Reply, Beacon: b.Beacon}
}

// Stats summarises delivery outcomes so far.
func (s *Simulation) Stats() ExperimentResult {
	st := s.stats
	return ExperimentResult{
		Breakdown:       s.Messages(),
		Produced:        st.Produced,
		StoredUnique:    st.StoredUnique,
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
func (s *Simulation) KillNode(id int) { s.net.Kill(netsim.NodeID(id)) }

// ReviveNode brings a failed node back with whatever protocol state
// it retained; timers that lapsed while it was dead stay silent. For
// a realistic rejoin, use RestartNode.
func (s *Simulation) ReviveNode(id int) { s.net.Revive(netsim.NodeID(id)) }

// RestartNode reboots a failed node: it rejoins with fresh protocol
// state (routing table, storage index, buffers), like a power-cycled
// mote. This is what churn-injection scenarios use.
func (s *Simulation) RestartNode(id int) { s.net.Restart(netsim.NodeID(id)) }

// Nodes returns the network size including the basestation.
func (s *Simulation) Nodes() int { return s.n }
