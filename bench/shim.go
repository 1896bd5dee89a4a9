package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"scoop/internal/core"
	"scoop/internal/dynamics"
	"scoop/internal/exp"
	"scoop/internal/histogram"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/trace"
	wl "scoop/internal/workload"
)

// The traced run measures every protocol layer from outside: each
// core.Base and core.Node is wrapped in a netsim.App that times the four
// callbacks the engine makes into it. Nothing inside the simulator is
// touched, so the split holds for any commit whose public constructors
// still compile.
//
// What the shim cannot see: closures the protocol hands to NodeAPI.Send
// run inside the MAC step, not inside an App callback, so send-completion
// handling is charged to the netsim engine.

// Timer ids 1..10 as documented in internal/core/config.go.
const (
	timerSample = iota + 1
	timerSummary
	timerTree
	timerMapping
	timerQuery
	timerBatch
	timerRemap
	timerReply
	timerAggFlush
	timerRel
	numTimers
)

const numClasses = int(metrics.Beacon) + 1

// acc is one timing key: call count, summed and longest wall time, and a
// log2 histogram of call durations (14 M callbacks in a run rule out one
// span per call).
type acc struct {
	n, sum, max int64
	hist        histogram.Log2
}

func (a *acc) add(ns int64) {
	a.n++
	a.sum += ns
	if ns > a.max {
		a.max = ns
	}
	a.hist.Record(ns)
}

func (a acc) plus(b acc) acc {
	a.n += b.n
	a.sum += b.sum
	if b.max > a.max {
		a.max = b.max
	}
	a.hist.Merge(b.hist)
	return a
}

// span is one control-plane-rate call written out in full.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing slice span, -1 for a slice
}

// probe collects everything one shimmed run observes. A serial run calls
// every App from one goroutine, so the fields need no lock.
type probe struct {
	epoch time.Time

	init      acc
	snoop     acc
	nodeRecv  [numClasses]acc
	baseRecv  [numClasses]acc
	timer     [numTimers]acc
	issueQ    []float64 // Base.IssueQuery wall, µs
	issueAgg  []float64 // Base.IssueAgg wall, µs
	sliceMS   []float64 // wall per sim.Run slice
	callbacks int64     // wall inside App callbacks, ns
	inLoop    int64     // the part of callbacks spent inside a slice (Init at Start is not)
	harness   int64     // wall inside the driver's own query tick, ns
	loopNs    int64     // wall of all slices

	spans []span
	slice int // index in spans of the slice being run
}

func (p *probe) now() int64 { return int64(wallSince(p.epoch)) }

func (p *probe) addSpan(name string, start, end int64) {
	p.spans = append(p.spans, span{Name: name, StartNs: start, EndNs: end, Parent: p.slice})
}

// charge accounts d ns of callback time.
func (p *probe) charge(d int64) {
	p.callbacks += d
	if p.slice >= 0 {
		p.inLoop += d
	}
}

// engineNs is the engine's self time: the loop's wall less everything
// that ran inside it on behalf of another layer.
func (p *probe) engineNs() int64 { return p.loopNs - p.inLoop - p.harness }

// shim wraps one App. It forwards every call unchanged.
type shim struct {
	app  netsim.App
	p    *probe
	base bool
}

func (s *shim) Init(api *netsim.NodeAPI) {
	t := s.p.now()
	s.app.Init(api)
	d := s.p.now() - t
	s.p.init.add(d)
	s.p.charge(d)
}

func (s *shim) Receive(pkt *netsim.Packet) {
	class := int(pkt.Class) // read before the call: the packet is recycled after it
	t := s.p.now()
	s.app.Receive(pkt)
	d := s.p.now() - t
	if class >= numClasses {
		class = numClasses - 1
	}
	if s.base {
		s.p.baseRecv[class].add(d)
	} else {
		s.p.nodeRecv[class].add(d)
	}
	s.p.charge(d)
}

func (s *shim) Snoop(pkt *netsim.Packet) {
	t := s.p.now()
	s.app.Snoop(pkt)
	d := s.p.now() - t
	s.p.snoop.add(d)
	s.p.charge(d)
}

func (s *shim) Timer(id int) {
	t := s.p.now()
	s.app.Timer(id)
	end := s.p.now()
	d := end - t
	if id < 0 || id >= numTimers {
		id = 0
	}
	s.p.timer[id].add(d)
	s.p.charge(d)
	if id == timerRemap {
		s.p.addSpan("index.remap", t, end)
	}
}

// driverResult is the outcome of one run of the bench's own driver.
type driverResult struct {
	WallS    float64
	VirtualS float64
	Digest   string
	Probe    *probe // nil with the shim off
}

// slicesPerRun is how many sim.Run slices the driver steps a run in; each
// slice's wall time is one sample of netsim.slice_ms_*.
const slicesPerRun = 360

// runDriver builds the network of one SCOOP experiment configuration
// through the public constructors, the way exp.Run does for its trial 0,
// and runs it on the serial engine in slices. With shimOn every App is
// wrapped in a timing shim. The simulated outcome must not depend on
// shimOn; whether it also equals exp.Run's is reported, not required.
//
// Left out on purpose: exp's aggregate ground-truth scan and its
// transition windows. Both only read state, so the outcome is the same;
// their cost is exp.harness_share.
func runDriver(cfg exp.Config, shimOn bool) (driverResult, error) {
	if cfg.Policy != policy.Scoop || cfg.Dynamics != nil || cfg.NodePct >= 0 {
		return driverResult{}, fmt.Errorf("driver: only SCOOP value-range configurations without a dynamics script")
	}
	start := wallNow()
	seed := cfg.Seed
	var topo *netsim.Topology
	switch cfg.Topology {
	case "uniform":
		topo = netsim.UniformTopology(cfg.N, math.Sqrt(float64(cfg.N))*1.008, 3.5, seed)
	case "grid":
		topo = netsim.GridTopology(cfg.N, 2.5, seed)
	default:
		return driverResult{}, fmt.Errorf("driver: topology %q", cfg.Topology)
	}

	sim := netsim.NewSimulator(seed ^ 0x53c00b)
	ctr := metrics.NewCounters()
	net := netsim.NewNetwork(sim, topo, ctr, netsim.DefaultParams())
	if cfg.LinkLoss > 0 {
		net.ScaleAllLinks(1 - cfg.LinkLoss)
	}
	var faults dynamics.Script
	if cfg.Faults != "" {
		fs, err := dynamics.FaultScenario(cfg.Faults, cfg.N, cfg.Warmup, cfg.Duration, seed+211)
		if err != nil {
			return driverResult{}, err
		}
		faults = fs
	}
	src, err := wl.NewSource(cfg.Source, cfg.N, seed+13)
	if err != nil {
		return driverResult{}, err
	}
	lo, hi := src.Domain()
	ccfg, err := policy.Config(cfg.Policy, cfg.N, lo, hi)
	if err != nil {
		return driverResult{}, err
	}
	ccfg.SampleInterval = cfg.SampleInterval
	ccfg.QueryDeadline = cfg.QueryDeadline
	ccfg.QueryRetryMax = cfg.QueryRetryMax

	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.New(func() int64 { return int64(sim.Now()) }, trace.NewJSONL(&countingWriter{}))
	}
	net.Trace = rec
	ccfg.Trace = rec

	var p *probe
	wrap := func(app netsim.App, base bool) netsim.App { return app }
	if shimOn {
		p = &probe{epoch: wallNow(), slice: -1}
		wrap = func(app netsim.App, base bool) netsim.App { return &shim{app: app, p: p, base: base} }
	}
	stats := &core.RunStats{}
	base := core.NewBase(ccfg, stats, cfg.Warmup)
	net.Attach(0, wrap(base, true))
	for i := 1; i < cfg.N; i++ {
		net.Attach(netsim.NodeID(i), wrap(core.NewNode(ccfg, stats, src.Next, cfg.Warmup), false))
	}
	net.Start()

	if !faults.Empty() {
		faults.Attach(sim, dynamics.Targets{Net: net, LossBase: 1 - cfg.LinkLoss, Trace: rec})
	}
	if cfg.QueryInterval > 0 {
		gen := wl.NewRangeGen(lo, hi, seed+29)
		var mixed *wl.MixedGen
		if cfg.AggRatio > 0 {
			mixed = wl.NewMixedGen(gen, cfg.AggRatio, cfg.AggErrBudget, seed+31)
		}
		var tick func()
		tick = func() {
			var req wl.Request
			if mixed != nil {
				req = mixed.NextRequest(sim.Now())
			} else {
				req = wl.Request{Query: gen.Next(sim.Now())}
			}
			var t0 int64
			if p != nil {
				t0 = p.now()
			}
			name := "query.issue_query"
			if req.Agg != nil {
				aq := *req.Agg
				if aq.TimeLo < cfg.Warmup {
					aq.TimeLo = cfg.Warmup
				}
				base.IssueAgg(aq)
				name = "query.issue_agg"
			} else {
				q := req.Query
				if q.TimeLo < cfg.Warmup {
					q.TimeLo = cfg.Warmup
				}
				base.IssueQuery(q)
			}
			if p != nil {
				end := p.now()
				us := float64(end-t0) / 1e3
				if req.Agg != nil {
					p.issueAgg = append(p.issueAgg, us)
				} else {
					p.issueQ = append(p.issueQ, us)
				}
				p.harness += end - t0
				p.addSpan(name, t0, end)
			}
			if sim.Now()+cfg.QueryInterval <= cfg.Duration {
				sim.After(cfg.QueryInterval, tick)
			}
		}
		sim.At(cfg.Warmup+cfg.QueryInterval, tick)
	}

	for i := 1; i <= slicesPerRun; i++ {
		t := cfg.Duration * netsim.Time(i) / slicesPerRun
		if p == nil {
			sim.Run(t)
			continue
		}
		p.slice = len(p.spans)
		p.spans = append(p.spans, span{Name: "netsim.slice", Parent: -1})
		t0 := p.now()
		sim.Run(t)
		end := p.now()
		p.spans[p.slice].StartNs, p.spans[p.slice].EndNs = t0, end
		p.sliceMS = append(p.sliceMS, float64(end-t0)/1e6)
		p.loopNs += end - t0
		p.slice = -1
	}
	base.FinalizeVerdicts()
	if rec != nil {
		if err := rec.Close(); err != nil {
			return driverResult{}, fmt.Errorf("driver: closing trace: %w", err)
		}
	}

	var dg digester
	dg.addTrial(exp.TrialResult{Stats: *stats, Breakdown: ctr.Snapshot()})
	return driverResult{
		WallS:    wallSince(start).Seconds(),
		VirtualS: float64(cfg.Duration) / float64(netsim.Second),
		Digest:   dg.sum(),
		Probe:    p,
	}, nil
}

// writeSpans writes the probe's full spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
