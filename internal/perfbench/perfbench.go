// Package perfbench defines the repo's hot-path performance
// benchmarks as plain functions, so the same code runs both as `go
// test -bench` benchmarks (netsim/core/root bench files wrap them) and
// inside cmd/scoopperf, which records the numbers into the committed
// BENCH_scale.json artifact and gates CI on allocs/op regressions.
//
// Two kinds of measurements exist:
//
//   - Micro benches (Benches): per-simulated-event cost of the netsim
//     radio fan-out and the full core protocol stack, at several
//     network sizes. allocs/op is machine-independent and gated;
//     ns/op and bytes/op are recorded for trend reading only.
//   - Sim-rate probes (SimRates): end-to-end virtual-time-per-
//     wallclock-time of a full SCOOP experiment at N ∈ {65, 250,
//     1000}, the scale-tier headline number. Wall-clock dependent, so
//     recorded but never gated.
package perfbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"scoop/internal/core"
	"scoop/internal/exp"
	"scoop/internal/histogram"
	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/prof"
	"scoop/internal/trace"
	"scoop/internal/trickle"
	"scoop/internal/workload"
)

// Bench is one named micro-benchmark.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Benches returns the gated hot-path micro benches in artifact order.
// The index/rebuild/* entries are additionally gated on ns/op (20%
// tolerance); they pin GOMAXPROCS=1 so the measurement is pure serial
// CPU work — a baseline from a many-core machine would otherwise be
// unreachable for a small CI runner (and vice versa) through the
// builder's parallel fan-out.
func Benches() []Bench {
	return []Bench{
		{"netsim/flood/n65", func(b *testing.B) { benchNetsimFlood(b, 65) }},
		{"netsim/flood/n250", func(b *testing.B) { benchNetsimFlood(b, 250) }},
		{"netsim/flood/n1000", func(b *testing.B) { benchNetsimFlood(b, 1000) }},
		{"core/scoop/n65", func(b *testing.B) { benchCoreScoop(b, 65) }},
		{"core/scoop/n250", func(b *testing.B) { benchCoreScoop(b, 250) }},
		{"core/scoop/n1000", func(b *testing.B) { benchCoreScoop(b, 1000) }},
		{"core/reply/rel-off", benchReplyRelOff},
		{"core/reply/rel-settled", benchReplyRelSettled},
		{"index/rebuild/n65", func(b *testing.B) { benchIndexRebuild(b, 65) }},
		{"index/rebuild/n250", func(b *testing.B) { benchIndexRebuild(b, 250) }},
		{"index/rebuild/n1000", func(b *testing.B) { benchIndexRebuild(b, 1000) }},
		{"trace/emit/disabled", benchTraceDisabled},
		{"trace/emit/ring", benchTraceRing},
		{"prof/emit/disabled", benchProfDisabled},
		{"prof/emit/enabled", benchProfEnabled},
		{"trickle/ontimer/retired1k", benchTrickleRetired},
	}
}

// trickleApp hosts one Trickle instance and nothing else.
type trickleApp struct {
	cfg trickle.Config
	tr  *trickle.Trickle
}

func (a *trickleApp) Init(api *netsim.NodeAPI) {
	// Item 0 is kept alive for ever by a Reset from its own send.
	a.tr = trickle.New(api, 0, a.cfg, func(k trickle.Key) {
		if k == 0 {
			a.tr.Reset(k)
		}
	})
}
func (a *trickleApp) Receive(*netsim.Packet) {}
func (a *trickleApp) Snoop(*netsim.Packet)   {}
func (a *trickleApp) Timer(int)              { a.tr.OnTimer() }

// benchTrickleRetired pins the Trickle tick to the live item count
// (DESIGN.md §12): one live item next to 1000 retired ones — the shape
// a node's query Trickle has late in a query-heavy run. One op is one
// timer event; it must stay zero allocs/op and must not grow with the
// retired set.
func benchTrickleRetired(b *testing.B) {
	b.ReportAllocs()
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, netsim.NewTopology(1), metrics.NewCounters(), netsim.DefaultParams())
	app := &trickleApp{cfg: trickle.Config{TauLow: 100, TauHigh: 100, K: 1, MaxRounds: 1}}
	net.Attach(0, app)
	net.Start()
	for k := trickle.Key(1); k <= 1000; k++ {
		app.tr.Add(k)
	}
	sim.Run(netsim.Second) // one interval each, then retired
	app.tr.Add(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.Step() {
			b.Fatal("trickle timer chain died")
		}
	}
}

// benchTraceDisabled pins the flight recorder's disabled-path cost:
// Emit on a nil Recorder must stay zero allocs/op (the hot netsim
// sites additionally skip Event construction behind a nil check; this
// measures the protocol-layer sites that call Emit unconditionally).
func benchTraceDisabled(b *testing.B) {
	b.ReportAllocs()
	var rec *trace.Recorder
	for i := 0; i < b.N; i++ {
		rec.Emit(trace.Event{Kind: trace.PacketSend, Node: 1, Peer: 2,
			Class: metrics.Data, Size: 30})
	}
}

// benchTraceRing pins the enabled-path cost with the default ring
// sink: stamping, fan-out and ring insertion must stay zero allocs/op
// so tracing never perturbs the allocation behaviour it observes.
func benchTraceRing(b *testing.B) {
	b.ReportAllocs()
	var now int64
	rec := trace.New(func() int64 { now++; return now }, trace.NewRing(4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(trace.Event{Kind: trace.PacketSend, Node: 1, Peer: 2,
			Class: metrics.Data, Size: 30})
	}
}

// benchProfDisabled pins the profiler's disabled-path cost: the full
// per-event call sequence (BeginEvent, a nested Enter/Exit span,
// EndEvent) on a nil Profiler must stay zero allocs/op — it is one nil
// branch per call, cheap enough to leave unconditionally in the event
// loop and protocol hot paths.
func benchProfDisabled(b *testing.B) {
	b.ReportAllocs()
	var p *prof.Profiler
	for i := 0; i < b.N; i++ {
		p.BeginEvent(prof.PhaseRadio, 5, 12)
		prev := p.Enter(prof.PhaseNodeRecv)
		p.Exit(prev)
		p.EndEvent()
	}
}

// benchProfEnabled pins the enabled-path cost of the same sequence:
// attribution flushes, counter updates and histogram records must stay
// zero allocs/op so profiling never perturbs the allocation behaviour
// it observes.
func benchProfEnabled(b *testing.B) {
	b.ReportAllocs()
	p := prof.New()
	p.LoopBegin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginEvent(prof.PhaseRadio, 5, 12)
		prev := p.Enter(prof.PhaseNodeRecv)
		p.Exit(prev)
		p.EndEvent()
	}
	b.StopTimer()
	p.LoopEnd()
}

// floodApp is a minimal netsim application that keeps the radio busy:
// every node broadcasts a beacon-sized frame on a jittered timer for
// the whole run, exercising the transmit fan-out, carrier sense,
// collision checks and delivery scheduling with no protocol logic on
// top.
type floodApp struct {
	api *netsim.NodeAPI
}

func (f *floodApp) Init(api *netsim.NodeAPI) {
	f.api = api
	api.SetTimer(0, netsim.Time(1+api.RandIntn(1000)))
}
func (f *floodApp) Receive(p *netsim.Packet) {}
func (f *floodApp) Snoop(p *netsim.Packet)   {}
func (f *floodApp) Timer(id int) {
	f.api.Broadcast(&netsim.Packet{Class: metrics.Beacon, Size: 24})
	f.api.SetTimer(0, netsim.Second+netsim.Time(f.api.RandIntn(500)))
}

// benchNetsimFlood measures the bare radio/event loop: n nodes
// broadcasting once a second for one virtual minute. The reported
// per-op numbers are per virtual minute of simulation.
func benchNetsimFlood(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := netsim.GridTopology(n, 2.5, 7)
		sim := netsim.NewSimulator(11)
		net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
		for id := 0; id < n; id++ {
			net.Attach(netsim.NodeID(id), &floodApp{})
		}
		net.Start()
		sim.Run(netsim.Minute)
	}
}

// benchCoreScoop measures the full protocol stack end to end: a SCOOP
// network (base + nodes, sampling, summaries, index dissemination,
// data routing) over four virtual minutes. Per-op numbers are per
// four-virtual-minute run.
func benchCoreScoop(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := netsim.GridTopology(n, 2.5, 7)
		sim := netsim.NewSimulator(13)
		net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
		src, err := workload.NewSource("real", n, 17)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := src.Domain()
		ccfg, err := policy.Config(policy.Scoop, n, lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		stats := &core.RunStats{}
		warm := netsim.Minute
		net.Attach(0, core.NewBase(ccfg, stats, warm))
		for id := 1; id < n; id++ {
			net.Attach(netsim.NodeID(id), core.NewNode(ccfg, stats, src.Next, warm))
		}
		net.Start()
		sim.Run(4 * netsim.Minute)
	}
}

// replyBenchBase builds a warmed 20-node SCOOP network, issues one
// wide tuple query, runs `settle` more virtual time, and returns the
// base plus the query's last wire ID — the fixture for the per-reply
// hot-path benches below.
func replyBenchBase(b *testing.B, deadline netsim.Time, retryMax int, settle netsim.Time) (*core.Base, uint16) {
	const n = 20
	topo := netsim.GridTopology(n, 2.5, 7)
	sim := netsim.NewSimulator(13)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	src, err := workload.NewSource("real", n, 17)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := src.Domain()
	ccfg, err := policy.Config(policy.Scoop, n, lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	ccfg.QueryDeadline = deadline
	ccfg.QueryRetryMax = retryMax
	stats := &core.RunStats{}
	base := core.NewBase(ccfg, stats, netsim.Minute)
	net.Attach(0, base)
	for id := 1; id < n; id++ {
		net.Attach(netsim.NodeID(id), core.NewNode(ccfg, stats, src.Next, netsim.Minute))
	}
	net.Start()
	sim.Run(4 * netsim.Minute)
	sim.At(sim.Now()+1, func() {
		base.IssueQuery(workload.Query{ValueLo: lo, ValueHi: hi, TimeLo: 0, TimeHi: 4 * netsim.Minute})
	})
	sim.Run(sim.Now() + 1 + settle)
	return base, base.LastQueryID()
}

// benchReplyRelOff pins the reliability layer's disabled-path cost on
// the per-reply hot path: with Config.QueryDeadline zero (the §19
// layer off) a duplicate reply through Base.Receive must stay zero
// allocs/op — the layer adds only the wire-ID resolve and the nil
// deadline check to pre-reliability reply handling.
func benchReplyRelOff(b *testing.B) {
	base, qid := replyBenchBase(b, 0, 0, 10*netsim.Second)
	pkt := &netsim.Packet{Class: metrics.Reply, Src: 1, Origin: 1,
		Payload: &core.ReplyMsg{QueryID: qid, Node: 1}}
	base.Receive(pkt) // mark node 1 replied; every timed op is then a duplicate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Receive(pkt)
	}
}

// benchReplyRelSettled pins the enabled layer's post-settlement cost:
// once a query's verdict is journalled and its collection state
// evicted, a late reply must be dropped by the eviction guard at zero
// allocs/op — straggler traffic after a retry storm cannot tax the
// base.
func benchReplyRelSettled(b *testing.B) {
	// 8s deadline, one retry: settled (and evicted) well inside the
	// extra virtual minute the fixture runs.
	base, qid := replyBenchBase(b, 8*netsim.Second, 1, netsim.Minute)
	pkt := &netsim.Packet{Class: metrics.Reply, Src: 1, Origin: 1,
		Payload: &core.ReplyMsg{QueryID: qid, Node: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Receive(pkt)
	}
}

// rebuildScenario is the steady-state reindex workload the
// index/rebuild/* benches measure: an n-node network whose nodes each
// report ~12 neighbors (the paper's summary shape), a 151-value
// domain, and a mutation schedule that touches ~3% of the node
// statistics per epoch plus an occasional link-quality change — the
// kind of inter-epoch delta a live basestation sees between remaps.
type rebuildScenario struct {
	n       int
	domain  int
	r       *rand.Rand
	g       *index.Graph
	links   [][2]netsim.NodeID
	linkQ   []float64
	centers []int
	hists   []histogram.Histogram
	nodes   []index.NodeStat
	prob    []float64
}

func newRebuildScenario(n int) *rebuildScenario {
	s := &rebuildScenario{
		n: n, domain: 151,
		r:       rand.New(rand.NewSource(int64(n) * 7)),
		g:       index.NewGraph(n),
		centers: make([]int, n),
		hists:   make([]histogram.Histogram, n),
		nodes:   make([]index.NodeStat, n),
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 12; d++ {
			j := netsim.NodeID(s.r.Intn(n))
			if int(j) != i {
				s.links = append(s.links, [2]netsim.NodeID{netsim.NodeID(i), j})
				s.linkQ = append(s.linkQ, 0.2+0.75*s.r.Float64())
			}
		}
		s.centers[i] = s.r.Intn(s.domain)
		s.refreshHist(i)
	}
	s.prob = make([]float64, s.domain)
	for i := range s.prob {
		s.prob[i] = 1.0 / float64(s.domain)
	}
	return s
}

func (s *rebuildScenario) refreshHist(i int) {
	vals := make([]int, 30)
	for k := range vals {
		v := s.centers[i] + k%21 - 10
		if v < 0 {
			v = 0
		}
		if v >= s.domain {
			v = s.domain - 1
		}
		vals[k] = v
	}
	s.hists[i] = histogram.Build(vals, 10)
}

// step applies one epoch's worth of drift and returns the rebuild
// input (graph mode, so the builder runs the sparse SPT pass).
// moveLink additionally shifts one link-quality estimate, which
// forces the shortest-path pass to re-run that epoch.
func (s *rebuildScenario) step(moveLink bool) index.BuildInput {
	// ~3% of nodes report a shifted distribution.
	for k := 0; k < 1+s.n/32; k++ {
		i := 1 + s.r.Intn(s.n-1)
		s.centers[i] = (s.centers[i] + 5 + s.r.Intn(11)) % s.domain
		s.refreshHist(i)
	}
	if moveLink {
		e := s.r.Intn(len(s.links))
		s.linkQ[e] = 0.2 + 0.75*s.r.Float64()
	}
	s.g.Reset()
	for e, l := range s.links {
		s.g.Report(l[0], l[1], s.linkQ[e])
	}
	for i := 1; i < s.n; i++ {
		s.nodes[i] = index.NodeStat{Hist: s.hists[i], Rate: 1.0 / 15}
	}
	return index.BuildInput{
		N: s.n, Base: 0,
		Nodes:    s.nodes,
		Query:    index.QueryProfile{Rate: 1.0 / 15, MinValue: 0, Prob: s.prob},
		Graph:    s.g,
		MinValue: 0, MaxValue: s.domain - 1,
	}
}

// rebuildEpochsPerOp makes every benchmark op an identical unit of
// work — three stats-only epochs (SPT skipped or cheap dirty subset)
// plus one link-moving epoch (full SPT) — so ns/op and allocs/op do
// not depend on which b.N the harness happens to pick. A modulo
// schedule instead ("every 4th op moves a link") made the measured
// epoch mix a function of b.N and the gate machine-dependent.
const rebuildEpochsPerOp = 4

// benchIndexRebuild measures steady-state basestation reindexing:
// sparse shortest paths (when links moved), dirty-value tracking and
// the incremental owner search, via a warm Builder exactly as
// core.Base drives it. Per-op numbers are per four-epoch cycle —
// three stats-drift rebuilds plus one link-move rebuild. GOMAXPROCS
// is pinned to 1 for the duration: the ns/op gate needs a number
// that does not scale with the measuring machine's core count
// (parallel-path correctness is pinned separately by the GOMAXPROCS
// determinism tests in internal/index).
func benchIndexRebuild(b *testing.B, n int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	s := newRebuildScenario(n)
	var bl index.Builder
	// Warm cycle outside the timer: first (full) build, plus one
	// link-move epoch so both xmits buffers and all worker scratch
	// reach steady-state size.
	for e := 0; e < rebuildEpochsPerOp; e++ {
		in := s.step(e == rebuildEpochsPerOp-1)
		bl.BuildOwners(&in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < rebuildEpochsPerOp; e++ {
			in := s.step(e == rebuildEpochsPerOp-1)
			bl.BuildOwners(&in)
		}
	}
}

// SimRate is one end-to-end throughput probe: how many virtual
// milliseconds of a full SCOOP experiment one wall-clock second buys.
// Regions > 1 runs the trial on the region-parallel event loop —
// results are bit-identical to serial by construction (the
// differential harness pins this), so the probe measures pure engine
// overhead/speedup at that K.
type SimRate struct {
	N        int
	Duration netsim.Time
	Regions  int
}

// SimRates returns the scale-tier probe points. Durations shrink as N
// grows so the whole artifact regenerates in well under a CI minute;
// the 40-virtual-minute 1000-node acceptance run lives in
// TestScaleTier1000 instead. The 1000-node cell is additionally probed
// on the parallel engine at K ∈ {2, 4}: on a single-core runner these
// record the coordination overhead, on a multi-core machine the
// speedup — either way the committed number is the honest one for the
// machine that produced the artifact.
func SimRates() []SimRate {
	return []SimRate{
		{N: 65, Duration: 10 * netsim.Minute},
		{N: 250, Duration: 6 * netsim.Minute},
		{N: 1000, Duration: 4 * netsim.Minute},
		{N: 1000, Duration: 4 * netsim.Minute, Regions: 2},
		{N: 1000, Duration: 4 * netsim.Minute, Regions: 4},
	}
}

// simRateSamples is how many times RunSimRate repeats each probe; the
// median is reported, so one GC pause or scheduler hiccup in a single
// run cannot skew the recorded trajectory point.
const simRateSamples = 3

// RunSimRate executes one probe simRateSamples times and returns the
// median virtual-seconds simulated per wall-clock second. Each sample
// starts from a collected heap: when the probes run after the micro
// benches in one scoopperf process, the benches' residual garbage and
// inflated GC goal otherwise tax the probe by integer factors and the
// artifact records the process history instead of the engine.
func RunSimRate(p SimRate) (float64, error) {
	cfg := exp.Default()
	cfg.N = p.N
	cfg.Topology = "grid"
	cfg.Duration = p.Duration
	cfg.Warmup = p.Duration / 4
	cfg.Trials = 1
	cfg.Seed = 3
	cfg.Regions = p.Regions
	rates := make([]float64, 0, simRateSamples)
	for s := 0; s < simRateSamples; s++ {
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		if _, err := exp.Run(cfg); err != nil {
			return 0, fmt.Errorf("perfbench: sim-rate N=%d: %w", p.N, err)
		}
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		rates = append(rates, float64(p.Duration)/1000/wall)
	}
	sort.Float64s(rates)
	return rates[len(rates)/2], nil
}
