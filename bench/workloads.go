package main

import (
	"bytes"
	"fmt"
	"runtime"

	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/sweep"
	"scoop/internal/trace"
)

// A workload is one named set of inputs. why records the reason it is in
// the benchmark; the same sentence is in BENCHMARK.json.
type workload struct {
	name string
	why  string
}

const (
	wFig3  = "fig3-sweep"
	wScale = "scale1000"
	wQuery = "query-heavy100"
	wTrace = "trace-on250"
)

var workloads = []workload{
	{wFig3, "64 paper-scale cells (4 policies x 2 loss x 4 sources x 2 churn, N=63, 40 min) through sweep.Run: per-cell set-up, the worker pool and protocol callbacks outweigh the engine; carries Figure 3"},
	{wScale, "the ROADMAP headline: one SCOOP/REAL grid N=1000 run on the serial engine; write-dominated, heap depth ~8k, where the netsim engine does most of the work; its Regions=2 twin gives netsim.k2_speedup"},
	{wQuery, "the read side: N=100, loss 0.2, a query every 3 s, half aggregates, deadline retries and the fault campaign, three seeds; query Trickle dominates and the engine share is smallest"},
	{wTrace, "the observability path: grid N=250, three seeds, with the flight recorder encoding JSONL into a counting discard writer; the only workload that runs internal/trace's encoder"},
}

// spec is a workload resolved for one seed and one length: either a sweep
// grid or a list of experiment configurations run one after another.
type spec struct {
	name string
	grid *sweep.Grid
	cfgs []exp.Config
	// twinRegions, when > 1, asks the check and traced runs to repeat the
	// workload on the region-parallel engine with that many regions: the
	// outcome must not change, and the wall ratio is netsim.k2_speedup.
	twinRegions int
}

// newSpec builds the inputs of a workload from the seed. frac scales the
// virtual length (1 for the measured runs, smaller for check and smoke
// runs); lengths stay whole virtual seconds.
func newSpec(name string, seed int64, frac float64) (spec, error) {
	length := func(min int) netsim.Time {
		return netsim.Time(float64(min)*60*frac) * netsim.Second
	}
	base := func(n int, topo string, durMin, warmMin int) exp.Config {
		c := exp.Default()
		c.N = n
		c.Topology = topo
		c.Duration = length(durMin)
		c.Warmup = length(warmMin)
		c.Trials = 1
		c.Seed = seed
		return c
	}
	s := spec{name: name}
	switch name {
	case wFig3:
		s.grid = &sweep.Grid{
			Name:           wFig3,
			Policies:       []policy.Name{policy.Scoop, policy.Local, policy.Base, policy.HashSim},
			Topologies:     []string{"uniform"},
			Sizes:          []int{63},
			LossRates:      []float64{0, 0.2},
			ChurnRates:     []float64{0, 0.15},
			Sources:        []string{"real", "gaussian", "unique", "random"},
			Duration:       length(40),
			Warmup:         length(10),
			SampleInterval: 15 * netsim.Second,
			QueryInterval:  15 * netsim.Second,
			Trials:         1,
			Seed:           seed,
		}
	case wScale:
		s.cfgs = []exp.Config{base(1000, "grid", 15, 5)}
		s.twinRegions = 2
	case wQuery:
		for i := int64(0); i < 3; i++ {
			c := base(100, "uniform", 20, 5)
			c.Seed = seed + i
			c.LinkLoss = 0.2
			c.QueryInterval = 3 * netsim.Second
			c.AggRatio = 0.5
			c.AggErrBudget = 0.05
			c.QueryDeadline = 8 * netsim.Second
			c.QueryRetryMax = 2
			c.Faults = "campaign"
			s.cfgs = append(s.cfgs, c)
		}
	case wTrace:
		for i := int64(0); i < 3; i++ {
			c := base(250, "grid", 30, 5)
			c.Seed = seed + i
			c.Trace = true
			s.cfgs = append(s.cfgs, c)
		}
	default:
		return spec{}, fmt.Errorf("unknown workload %q", name)
	}
	return s, nil
}

// virtualS is the simulated time one unit of the spec covers, summed over
// its cells or configurations.
func (s spec) virtualS() float64 {
	if s.grid != nil {
		return float64(len(s.grid.Cells())) * float64(s.grid.Duration) / float64(netsim.Second)
	}
	var v float64
	for _, c := range s.cfgs {
		v += float64(c.Duration) / float64(netsim.Second)
	}
	return v
}

// setup returns the spec cut down to set-up alone: one virtual
// millisecond, no warm-up, no fault script. (The sweep grid cannot say
// "no warm-up" — zero means its default — so its cells run 2 ms with a
// 1 ms warm-up.)
func (s spec) setup() spec {
	out := spec{name: s.name}
	if s.grid != nil {
		g := *s.grid
		g.Duration, g.Warmup = 2*netsim.Millisecond, netsim.Millisecond
		out.grid = &g
		return out
	}
	for _, c := range s.cfgs {
		c.Duration, c.Warmup, c.Faults = netsim.Millisecond, 0, ""
		out.cfgs = append(out.cfgs, c)
	}
	return out
}

// checkSpec returns what the untimed check runs cover: the first of
// several configurations (the others differ only in seed), and the
// static-membership half of the sweep. Under churn internal/invariant
// reports vanished readings on about one seed in four (BASE and HASHSIM
// cells so far; first seen at seed 4, base/unique/loss 0.2/churn 0.15),
// and a benchmark may only run operations that do not fail. The measured
// units still run the churn cells.
func (s spec) checkSpec() spec {
	if s.grid == nil {
		return spec{name: s.name, cfgs: s.cfgs[:1], twinRegions: s.twinRegions}
	}
	static := *s.grid
	static.ChurnRates = []float64{0}
	return spec{name: s.name, grid: &static}
}

// model holds the simulated-time statistics of one unit as numerators
// and denominators, over Scoop-policy trials or cells only. A sweep cell
// does not report readings produced, so its denominator is the nominal
// count (N-1 nodes x active time / sample interval).
type model struct {
	Msgs, Readings   float64
	Stored, StoredOf float64
	Replies, Asked   float64
	BaseMsgs         float64 // fig3-sweep: BASE msgs over the REAL / loss 0 / churn 0 cells
	ScoopMsgs        float64 // and SCOOP msgs over the same cells
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// unit is one execution of a spec.
type unit struct {
	WallS      float64 `json:"wall_s"`
	VirtualS   float64 `json:"virtual_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	Err        string  `json:"err,omitempty"`
	Digest     string  `json:"digest"`
	TraceBytes int64   `json:"trace_bytes,omitempty"`
	TraceLines int64   `json:"trace_lines,omitempty"`

	model   model
	results []exp.Result       // experiment workloads: one per configuration
	cells   []sweep.CellResult // fig3-sweep
}

// countingWriter discards what it is given and counts bytes and lines.
type countingWriter struct{ bytes, lines int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// runOpts are the instrumentation switches of one unit; the measured
// runs leave all of them off.
type runOpts struct {
	profile    bool
	invariants bool
	noTrace    bool // run a trace workload's trace-off twin
	regions    int  // > 1: run on the region-parallel engine
}

// runUnit executes the spec once and accounts wall time, allocation and
// the simulated outcome. An experiment that returns an error fails its
// ops; the unit itself still returns.
func runUnit(s spec, o runOpts) unit {
	u := unit{VirtualS: s.virtualS()}
	var dg digester
	var cw countingWriter
	// exp.ForceInvariants is the only way to reach the cells of a sweep;
	// each child process runs one kind of job, so the switch never leaks
	// into a timed run.
	exp.ForceInvariants = o.invariants

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := wallNow()
	if s.grid != nil {
		cells := s.grid.Cells()
		u.Ops = len(cells)
		rep, err := sweep.Run(*s.grid, sweep.Options{Parallel: runtime.GOMAXPROCS(0)})
		if err != nil {
			u.Failed, u.Err = u.Ops, err.Error()
		} else {
			dg.addCells(rep.Cells)
			u.foldCells(s.grid, rep.Cells)
		}
	} else {
		for _, c := range s.cfgs {
			c.Profile = o.profile
			if o.regions > 1 {
				c.Regions = o.regions
			}
			if o.noTrace {
				c.Trace = false
			}
			if c.Trace {
				c.TraceSinks = func(int) []trace.Sink { return []trace.Sink{trace.NewJSONL(&cw)} }
			}
			u.Ops += c.Trials
			res, err := exp.Run(c)
			if err != nil {
				u.Failed += c.Trials
				u.Err = err.Error()
				continue
			}
			for _, tr := range res.PerTrial {
				dg.addTrial(tr)
			}
			u.foldResult(res)
		}
	}
	u.WallS = wallSince(start).Seconds()
	runtime.ReadMemStats(&after)
	u.Mallocs = after.Mallocs - before.Mallocs
	u.AllocBytes = after.TotalAlloc - before.TotalAlloc
	u.GCCycles = after.NumGC - before.NumGC
	u.GCPauseNs = after.PauseTotalNs - before.PauseTotalNs
	u.Digest = dg.sum()
	u.TraceBytes, u.TraceLines = cw.bytes, cw.lines
	return u
}

func (u *unit) foldResult(res exp.Result) {
	u.results = append(u.results, res)
	st := res.Stats
	m := &u.model
	m.Msgs += res.Breakdown.Total() * float64(len(res.PerTrial))
	m.Readings += float64(st.Produced)
	m.Stored += float64(st.StoredUnique)
	m.StoredOf += float64(st.Produced)
	m.Replies += float64(st.RepliesReceived)
	m.Asked += float64(st.RepliesExpected)
}

func (u *unit) foldCells(g *sweep.Grid, cells []sweep.CellResult) {
	u.cells = cells
	m := &u.model
	active := float64(g.Duration-g.Warmup) / float64(g.SampleInterval)
	for _, c := range cells {
		paper := c.Source == "real" && c.Loss == 0 && c.Churn == 0
		switch policy.Name(c.Policy) {
		case policy.Scoop:
			m.Msgs += c.Msgs
			m.Readings += float64(c.N-1) * active
			m.Stored += c.DataSuccess
			m.StoredOf++
			m.Replies += c.QuerySuccess
			m.Asked++
			if paper {
				m.ScoopMsgs += c.Msgs
			}
		case policy.Base:
			if paper {
				m.BaseMsgs += c.Msgs
			}
		}
	}
}
