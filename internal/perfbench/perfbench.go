// Package perfbench defines the repo's hot-path micro benchmarks as
// plain functions: the per-simulated-event cost of the netsim radio
// fan-out and the full core protocol stack at several network sizes,
// the event queue at the scale tier's depth and delay mix,
// the basestation's warm reindex, the per-reply path through the query
// reliability layer, trace emission into a counting sink and into the
// JSONL sink, and one trial's set-up. Two callers: the root
// BenchmarkHotPaths (`go test -bench`) and bench/, the repo's
// benchmark, which times four of them by name for its isolated
// per-layer metrics. The zero-allocation contracts are plain tests
// next to the code they pin (TestReplyPathZeroAllocs here, the
// AllocsPerRun tests in trace, prof and trickle); end-to-end sim rate
// and allocations per virtual second are bench/'s to measure.
package perfbench

import (
	"io"
	"math/rand/v2"
	"runtime"
	"testing"

	"scoop/internal/core"
	"scoop/internal/exp"
	"scoop/internal/histogram"
	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// Bench is one named micro-benchmark.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Benches returns the hot-path micro benches. bench/ looks up
// netsim/flood/n1000, index/rebuild/n1000, core/reply/rel-off and
// trace/emit/ring by name.
func Benches() []Bench {
	return []Bench{
		{"netsim/flood/n65", func(b *testing.B) { benchNetsimFlood(b, 65) }},
		{"netsim/flood/n250", func(b *testing.B) { benchNetsimFlood(b, 250) }},
		{"netsim/flood/n1000", func(b *testing.B) { benchNetsimFlood(b, 1000) }},
		{"netsim/queue/n1000", benchNetsimQueue},
		{"core/scoop/n65", func(b *testing.B) { benchCoreScoop(b, 65) }},
		{"core/scoop/n250", func(b *testing.B) { benchCoreScoop(b, 250) }},
		{"core/scoop/n1000", func(b *testing.B) { benchCoreScoop(b, 1000) }},
		{"core/reply/rel-off", func(b *testing.B) { benchReply(b, replyRelOff) }},
		{"core/reply/rel-settled", func(b *testing.B) { benchReply(b, replyRelSettled) }},
		{"index/rebuild/n65", func(b *testing.B) { benchIndexRebuild(b, 65) }},
		{"index/rebuild/n250", func(b *testing.B) { benchIndexRebuild(b, 250) }},
		{"index/rebuild/n1000", func(b *testing.B) { benchIndexRebuild(b, 1000) }},
		{"trace/emit/ring", benchTraceRing},
		{"trace/emit/jsonl", benchTraceJSONL},
		{"exp/setup/n63", benchExpSetup},
	}
}

// benchExpSetup is what a trial costs before its first event: the paper
// cell cut to 1 ms, no warm-up (exp.TestSetupFootprint holds the bytes).
func benchExpSetup(b *testing.B) {
	b.ReportAllocs()
	cfg := exp.Default()
	cfg.Trials, cfg.Duration, cfg.Warmup = 1, netsim.Millisecond, 0
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// blockCount is a sink that counts the blocks handed to it and keeps
// nothing, so benchTraceRing times the recorder alone.
type blockCount struct{ n int }

func (c *blockCount) Record(*trace.Block) { c.n++ }
func (c *blockCount) Close() error        { return nil }

// benchTraceRing pins the enabled-path cost of the recorder itself:
// stamping, the append to the block and the block's hand-over to one
// sink must stay zero allocs/op so tracing never perturbs the
// allocation behaviour it observes. The name is the one bench/ looks
// up for trace.emit_ring_ns.
func benchTraceRing(b *testing.B) {
	b.ReportAllocs()
	var now int64
	rec := trace.New(func() int64 { now++; return now }, &blockCount{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(trace.Event{Kind: trace.PacketSend, Node: 1, Peer: 2,
			Class: metrics.Data, Size: 30})
	}
}

// benchTraceJSONL emits a mix shaped like a grid run's trace (mostly
// radio events, some reading lifecycle) into the JSONL sink over a
// discarding writer; zero allocs/op once the block pool exists. The
// encoder runs beside the loop and here nothing else does, so it is
// the slower side: ns/op is the sink's per-event throughput, an upper
// bound on what a traced run's event loop pays per event.
func benchTraceJSONL(b *testing.B) {
	b.ReportAllocs()
	mix := [8]trace.Event{
		{Kind: trace.PacketSend, Node: 17, Peer: 4, Class: metrics.Beacon, Size: 24},
		{Kind: trace.PacketSnoop, Node: 18, Peer: 17, Class: metrics.Beacon, Size: 24},
		{Kind: trace.PacketSnoop, Node: 33, Peer: 17, Class: metrics.Beacon, Size: 24},
		{Kind: trace.PacketRecv, Node: 4, Peer: 17, Class: metrics.Data, Size: 30},
		{Kind: trace.PacketDrop, Node: 16, Peer: 17, Class: metrics.Data, Cause: metrics.DropCollision, Size: 30},
		{Kind: trace.ReadingSampled, Node: 17, Producer: 17, SampleT: 1_215_000, Value: 61},
		{Kind: trace.ReadingStored, Node: 4, Flag: trace.StoreOwner, Producer: 17, SampleT: 1_215_000, Value: 61},
		{Kind: trace.PacketSend, Node: 4, Peer: 0, Class: metrics.Summary, Size: 46},
	}
	var now int64
	rec := trace.New(func() int64 { now++; return now }, trace.NewJSONL(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(mix[i&7])
	}
	b.StopTimer()
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
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

// benchNetsimQueue measures the event queue alone at the scale tier's
// shape: a standing 8 192 pending events, each replaced as it runs by
// one drawn from the delay mix measured on scale1000 — 80 % due in
// 5–250 ms (MAC steps and frame deliveries), 20 % in 1–110 s (the
// protocol's timers, which is what the standing population then mostly
// is). One op is one pop, one empty body and one push.
func benchNetsimQueue(b *testing.B) {
	b.ReportAllocs()
	sim := netsim.NewSimulator(1)
	x := uint64(1)
	delay := func() netsim.Time {
		x = x*6364136223846793005 + 1442695040888963407 // a cheap LCG: the draw must not be the cost
		r := x >> 33
		if r%5 == 0 {
			return netsim.Second + netsim.Time(r>>3)%(109*netsim.Second)
		}
		return 5 + netsim.Time(r>>3)%246
	}
	var fn func()
	fn = func() { sim.After(delay(), fn) }
	for i := 0; i < 8192; i++ {
		sim.After(delay(), fn)
	}
	for i := 0; i < 200_000; i++ { // two timer periods: the mix of residents has settled
		sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// coreTrial is the SCOOP network the core benches drive: n nodes on the
// grid layout, REAL data, a one-minute warm-up and no query ticker, as
// exp builds and seeds it.
func coreTrial(tb testing.TB, n int, deadline netsim.Time, retryMax int) *exp.Trial {
	cfg := exp.Default()
	cfg.N, cfg.Topology, cfg.Seed = n, "grid", 7
	cfg.Warmup, cfg.Duration, cfg.QueryInterval = netsim.Minute, 10*netsim.Minute, 0
	cfg.QueryDeadline, cfg.QueryRetryMax = deadline, retryMax
	tr, err := exp.NewTrial(cfg, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// benchCoreScoop measures the full protocol stack end to end: a SCOOP
// network (base + nodes, sampling, summaries, index dissemination,
// data routing) over four virtual minutes. Per-op numbers are per
// four-virtual-minute run.
func benchCoreScoop(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreTrial(b, n, 0, 0).Run(4 * netsim.Minute)
	}
}

// replyFixture builds a warmed 20-node SCOOP network, issues one wide
// tuple query, runs `settle` more virtual time, and returns the base
// plus a reply from node 1 under the query's last wire ID — the fixture
// for the per-reply hot path (benches below, TestReplyPathZeroAllocs).
func replyFixture(tb testing.TB, deadline netsim.Time, retryMax int, settle netsim.Time) (*core.Base, *netsim.Packet) {
	tr := coreTrial(tb, 20, deadline, retryMax)
	tr.Run(4 * netsim.Minute)
	base := tr.Base()
	base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: workload.RealMax, TimeLo: 0, TimeHi: 4 * netsim.Minute})
	tr.Run(4*netsim.Minute + settle)
	return base, &netsim.Packet{Class: metrics.Reply, Src: 1, Origin: 1,
		Payload: &core.ReplyMsg{QueryID: base.LastQueryID(), Node: 1}}
}

// replyRelOff is the reliability layer's disabled path: with
// Config.QueryDeadline zero (the §19 layer off) every reply after the
// first is a duplicate, and the layer adds only the wire-ID resolve and
// the nil deadline check to pre-reliability reply handling.
func replyRelOff(tb testing.TB) (*core.Base, *netsim.Packet) {
	base, pkt := replyFixture(tb, 0, 0, 10*netsim.Second)
	base.Receive(pkt) // mark node 1 replied
	return base, pkt
}

// replyRelSettled is the enabled layer's post-settlement path: 8 s
// deadline, one retry, so the query's verdict is journalled and its
// collection state evicted well inside the extra virtual minute; a late
// reply is dropped by the eviction guard — straggler traffic after a
// retry storm cannot tax the base.
func replyRelSettled(tb testing.TB) (*core.Base, *netsim.Packet) {
	return replyFixture(tb, 8*netsim.Second, 1, netsim.Minute)
}

// benchReply times Base.Receive on one of the two reply paths above;
// both must stay zero allocs/op (TestReplyPathZeroAllocs).
func benchReply(b *testing.B, fixture func(testing.TB) (*core.Base, *netsim.Packet)) {
	base, pkt := fixture(b)
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
		r:       rand.New(rand.NewPCG(uint64(n)*7, 0)),
		g:       index.NewGraph(n),
		centers: make([]int, n),
		hists:   make([]histogram.Histogram, n),
		nodes:   make([]index.NodeStat, n),
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 12; d++ {
			j := netsim.NodeID(s.r.IntN(n))
			if int(j) != i {
				s.links = append(s.links, [2]netsim.NodeID{netsim.NodeID(i), j})
				s.linkQ = append(s.linkQ, 0.2+0.75*s.r.Float64())
			}
		}
		s.centers[i] = s.r.IntN(s.domain)
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
// input. moveLink additionally shifts one link-quality estimate.
func (s *rebuildScenario) step(moveLink bool) index.BuildInput {
	// ~3% of nodes report a shifted distribution.
	for k := 0; k < 1+s.n/32; k++ {
		i := 1 + s.r.IntN(s.n-1)
		s.centers[i] = (s.centers[i] + 5 + s.r.IntN(11)) % s.domain
		s.refreshHist(i)
	}
	if moveLink {
		e := s.r.IntN(len(s.links))
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
// work — three stats-only epochs plus one link-moving epoch, each a
// full rebuild (every source solved, every value recomputed) — so
// ns/op and allocs/op do not depend on which b.N the harness happens
// to pick.
const rebuildEpochsPerOp = 4

// benchIndexRebuild measures steady-state basestation reindexing:
// sparse shortest paths and the streamed per-value owner search, via a
// warm Builder exactly as core.Base drives it. Per-op numbers are per four-epoch cycle —
// three stats-drift rebuilds plus one link-move rebuild. GOMAXPROCS
// is pinned to 1 for the duration: bench's index.rebuild_n1000_ms
// needs a number that does not scale with the machine's core count
// (parallel-path correctness is pinned separately by the GOMAXPROCS
// determinism tests in internal/index).
func benchIndexRebuild(b *testing.B, n int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	s := newRebuildScenario(n)
	var bl index.Builder
	// Warm cycle outside the timer, so all scratch reaches its
	// steady-state size.
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
