package exp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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

// Trial is one simulated run of an experiment cell, staged the way the
// paper's §6 method runs one (DESIGN.md §2, "A trial in four stages"):
// NewTrial builds the world and attaches the basestation and motes to
// it, Run drives virtual time forward, and Finish settles and collects
// the TrialResult. Run (the package function) is NewTrial → Run(Duration)
// → Finish for each of a cell's trials. A caller that wants to observe
// the run between events steps it with repeated Run calls instead and
// gets the same result. A Trial is not safe for concurrent use.
type Trial struct {
	cfg   Config
	trial int
	seed  int64 // Config.Seed + 7919·trial, the root of every per-trial stream

	// build
	sim     *netsim.Simulator
	ctr     *metrics.Counters
	net     *netsim.Network
	dyn     *dynamics.Script // Config.Dynamics plus the trial's fault scenario
	sampler workload.Source  // the source, behind drift when the script shifts data
	drift   *workload.Drift
	lo, hi  int // the source's value domain
	ccfg    core.Config

	// attach
	rec   *trace.Recorder
	pr    *prof.Profiler
	chk   *checker // ForceInvariants: a sink of rec
	stats core.RunStats
	base  *core.Base
	nodes []*core.Node // by node ID; nodes[0] is nil

	// drive
	armed      bool
	gen        workload.Generator
	mixed      *workload.MixedGen
	aggLog     []aggIssued
	aggScratch []core.Reading // an aggregate's matching readings (aggGroundTruth)
	res        TrialResult    // Timeline and Agg.Issued fill in while it runs
}

// aggIssued is an aggregate query as issued, with the ground truth
// captured at issue time to settle its answer against.
type aggIssued struct {
	qid     uint16
	gt      float64
	gtValid bool
}

// NewTrial builds and attaches trial number trial of cfg, seeded as Run
// seeds that trial, ready to Run. wrap, when non-nil, is handed every
// protocol instance — the basestation as node 0, then each mote — and
// what it returns is attached in its place; a wrapper that forwards
// every call unchanged leaves the run the one Run makes. NewTrial
// rejects what Validate rejects.
func NewTrial(cfg Config, trial int, wrap func(id netsim.NodeID, app netsim.App) netsim.App) (*Trial, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trial{cfg: cfg, trial: trial, seed: cfg.Seed + int64(trial)*7919}
	if err := t.build(); err != nil {
		return nil, err
	}
	t.attach(wrap)
	return t, nil
}

// build lays out the trial's world: the topology and radio network, the
// perturbation script with the trial's fault windows merged in, the data
// source and the protocol configuration. Nothing is attached yet.
func (t *Trial) build() error {
	cfg := &t.cfg
	layout, err := netsim.Layout(cfg.Topology)
	if err != nil {
		return err
	}
	t.sim = netsim.NewSimulator(t.seed ^ 0x53c00b)
	t.ctr = metrics.NewCounters()
	t.net = netsim.NewNetwork(t.sim, layout(cfg.N, t.seed), t.ctr, netsim.DefaultParams())
	if cfg.LinkLoss > 0 {
		t.net.ScaleAllLinks(1 - cfg.LinkLoss)
	}

	// The fault axis resolves per trial (seeded window jitter) and
	// rides the same control-plane timeline as any other dynamics.
	t.dyn = cfg.Dynamics
	if cfg.Faults != "" {
		fs, err := dynamics.FaultScenario(cfg.Faults, cfg.N, cfg.Warmup, cfg.Duration, t.seed+211)
		if err != nil {
			return err
		}
		var merged dynamics.Script
		if t.dyn != nil {
			merged.Append(*t.dyn)
		}
		merged.Append(fs)
		t.dyn = &merged
	}

	src, err := cfg.source(t.seed + 13)
	if err != nil {
		return err
	}
	t.lo, t.hi = src.Domain()
	// A script with data-distribution shifts samples through a drift
	// wrapper whose offset the scheduled events move.
	t.sampler = src
	if t.dyn.HasData() {
		t.drift = workload.NewDrift(src)
		t.sampler = t.drift
	}
	if t.ccfg, err = policy.Config(cfg.Policy, cfg.N, t.lo, t.hi); err != nil {
		return err
	}
	t.ccfg.SampleInterval = cfg.SampleInterval
	if cfg.ReindexInterval > 0 {
		t.ccfg.RemapInterval = cfg.ReindexInterval
	}
	if cfg.DisableReindex {
		// Build the first index from post-warm-up statistics as usual,
		// then freeze it: the network keeps a plausible static index, it
		// just never adapts.
		t.ccfg.RemapLimit = 1
	}
	if t.dyn.HasChurn() && t.ccfg.StatStaleAfter == 0 {
		// Under churn, dead nodes must age out of index construction.
		t.ccfg.StatStaleAfter = 3 * t.ccfg.SummaryInterval
	}
	t.ccfg.AggForcePlan = cfg.AggForce
	t.ccfg.QueryDeadline = cfg.QueryDeadline
	t.ccfg.QueryRetryMax = cfg.QueryRetryMax
	return nil
}

// attach puts the observers and the protocol stack on the network, in
// the order they depend on each other: the flight recorder with the
// invariant checker among its sinks, the profiler, then the basestation
// and the motes.
func (t *Trial) attach(wrap func(id netsim.NodeID, app netsim.App) netsim.App) {
	cfg := &t.cfg
	// One recorder per trial, clocked by this trial's simulator, fanned
	// out to the configured sinks.
	var sinks []trace.Sink
	if cfg.Trace {
		sinks = cfg.TraceSinks(t.trial)
	}
	traced := len(sinks) > 0
	if ForceInvariants {
		// The checker reads the reading events core and purged emit,
		// and the reboots that erase a node's store.
		t.chk = newChecker()
		sinks = append(slices.Clip(sinks), t.chk)
	}
	if len(sinks) > 0 {
		t.rec = trace.New(func() int64 { return int64(t.sim.Now()) }, sinks...)
		if !traced {
			// The checker alone: the radio's events and core's others
			// would cost it an append each, to be skipped unread.
			t.rec.Only(trace.ReadingSampled, trace.ReadingStored, trace.ReadingLost, trace.NodeRestart)
		}
		t.net.OnPurge = t.purged
	}
	t.net.Trace = t.rec
	t.ccfg.Trace = t.rec

	// Observation-only: the profiler hangs off the simulator and config
	// without touching protocol state.
	if cfg.Profile {
		t.pr = prof.New()
		t.sim.SetProfiler(t.pr)
		t.ccfg.Prof = t.pr
		t.rec.SetProfiler(t.pr)
	}

	if wrap == nil {
		wrap = func(_ netsim.NodeID, app netsim.App) netsim.App { return app }
	}
	t.base = core.NewBase(t.ccfg, &t.stats, cfg.Warmup)
	t.net.Attach(0, wrap(0, t.base))
	t.nodes = core.NewNodes(cfg.N, t.ccfg, &t.stats, t.sampler.Next, cfg.Warmup)
	for i := 1; i < cfg.N; i++ {
		id := netsim.NodeID(i)
		t.net.Attach(id, wrap(id, t.nodes[i]))
	}
	t.net.Start()
}

// purged reports the readings a purge destroys as lost: a reboot
// drains the send queue, and a kill strands the acked frames still in
// the air towards the node; batched readings in either are losses the
// radio-side accounting never sees.
func (t *Trial) purged(id netsim.NodeID, p *netsim.Packet) {
	dm, ok := p.Payload.(*core.DataMsg)
	if !ok {
		return
	}
	cause := metrics.DropReboot
	if p.Dst == id {
		cause = metrics.DropKilled
	}
	for _, r := range dm.Readings {
		t.rec.Emit(trace.Event{Kind: trace.ReadingLost, Node: uint16(id), Cause: cause,
			Producer: r.Producer, SampleT: r.Time, Value: int64(r.Value)})
	}
}

// Stats returns a copy of the live run counters; the per-reading dedup
// table stays with the run.
func (t *Trial) Stats() core.RunStats {
	var m core.RunStats
	m.Add(&t.stats)
	return m
}

// Base returns the trial's basestation, for a caller that steps the run
// and issues its own queries between Run calls.
func (t *Trial) Base() *core.Base { return t.base }

// Network returns the trial's radio network: its clock, its counters
// and the kill, revive and restart controls.
func (t *Trial) Network() *netsim.Network { return t.net }

// Run drives the trial to virtual time until; events at until still
// run. The first call arms the drive stage's schedules — the
// perturbation script, the transition-window ticker and the query
// ticker, none of which fires past Config.Duration — and a run stepped
// through rising untils is the run one call to the last of them makes.
func (t *Trial) Run(until netsim.Time) {
	if !t.armed {
		t.armed = true
		t.arm()
	}
	t.sim.Run(until)
}

// arm schedules the drive stage's control-plane events.
func (t *Trial) arm() {
	cfg := &t.cfg
	if cfg.QueryInterval > 0 {
		if cfg.NodePct >= 0 {
			t.gen = workload.NewNodePctGen(cfg.N, cfg.NodePct, t.seed+29)
		} else {
			rg := workload.NewRangeGen(t.lo, t.hi, t.seed+29)
			if cfg.QueryWidth > 0 {
				rg.WidthLo, rg.WidthHi = cfg.QueryWidth, cfg.QueryWidth
			}
			t.gen = rg
		}
		// The aggregate mix applies to value-range workloads on policies
		// that actually issue network queries.
		if cfg.AggRatio > 0 && cfg.NodePct < 0 && cfg.Policy != policy.Base {
			t.mixed = workload.NewMixedGen(t.gen, cfg.AggRatio, cfg.AggErrBudget, t.seed+31)
			t.mixed.Ops = cfg.AggOps
		}
	}

	if !t.dyn.Empty() {
		tg := dynamics.Targets{
			Net:      t.net,
			LossBase: 1 - cfg.LinkLoss,
			Trace:    t.rec,
			Observer: func(ev dynamics.Event) {
				t.res.Timeline.AddMark(int64(t.sim.Now()), ev.Kind.String())
			},
		}
		if t.drift != nil {
			tg.Data = t.drift
		}
		if rg, ok := t.gen.(*workload.RangeGen); ok {
			tg.Query = rg
		}
		t.dyn.Attach(t.sim, tg)
	}

	if win := cfg.windowInterval(); win > 0 {
		t.armWindows(win)
	}
	if cfg.QueryInterval > 0 {
		var tick func()
		tick = func() {
			t.issueQuery()
			if t.sim.Now()+cfg.QueryInterval <= cfg.Duration {
				t.sim.After(cfg.QueryInterval, tick)
			}
		}
		t.sim.At(cfg.Warmup+cfg.QueryInterval, tick)
	}
}

// armWindows samples the run's statistics every win after warm-up into
// the transition timeline.
func (t *Trial) armWindows(win netsim.Time) {
	prevStats := t.Stats()
	prevB := t.ctr.Snapshot()
	var tick func()
	tick = func() {
		cur := t.Stats()
		b := t.ctr.Snapshot()
		now := t.sim.Now()
		t.res.Timeline.Windows = append(t.res.Timeline.Windows, metrics.TransitionWindow{
			Start:           int64(now - win),
			End:             int64(now),
			Produced:        cur.Produced - prevStats.Produced,
			StoredUnique:    cur.StoredUnique - prevStats.StoredUnique,
			StoredAtOwner:   cur.StoredAtOwner - prevStats.StoredAtOwner,
			StoredAtBase:    cur.StoredAtBase - prevStats.StoredAtBase,
			RepliesExpected: cur.RepliesExpected - prevStats.RepliesExpected,
			RepliesReceived: cur.RepliesReceived - prevStats.RepliesReceived,
			Msgs:            b.Total() - prevB.Total(),
			Data:            b.Data - prevB.Data,
		})
		prevStats, prevB = cur, b
		if now+win <= t.cfg.Duration {
			t.sim.After(win, tick)
		}
	}
	t.sim.At(t.cfg.Warmup+win, tick)
}

// issueQuery is one query tick: the next request of the workload, as a
// tuple query or an aggregate.
func (t *Trial) issueQuery() {
	cfg := &t.cfg
	var req workload.Request
	if t.mixed != nil {
		req = t.mixed.NextRequest(t.sim.Now())
	} else {
		req = workload.Request{Query: t.gen.Next(t.sim.Now())}
	}
	q := req.Query
	if cfg.Policy == policy.Local && q.IsNodeQuery() {
		// Figure 4 semantics: under LOCAL the basestation cannot know
		// which nodes hold the data of interest, so every query floods
		// all nodes regardless of the queried fraction (paper: "LOCAL is
		// unaffected … since it has to always query all nodes").
		q = workload.Query{ValueLo: t.lo, ValueHi: t.hi, TimeLo: q.TimeLo, TimeHi: q.TimeHi}
	}
	// Queries never reach back before sampling started.
	q.TimeLo = max(q.TimeLo, cfg.Warmup)
	switch {
	case cfg.Policy == policy.Base:
		// Send-to-base answers queries from its local store at zero
		// network cost (paper §6: "queries have no associated cost" for
		// BASE).
		t.base.AnswerFromStore(q)
	case req.Agg != nil:
		aq := *req.Agg
		aq.TimeLo = max(aq.TimeLo, cfg.Warmup)
		var rec aggIssued
		rec.gt, rec.gtValid = t.aggGroundTruth(aq)
		t.base.IssueAgg(aq)
		rec.qid = t.base.LastQueryID()
		t.res.Agg.Issued++
		t.aggLog = append(t.aggLog, rec)
	default:
		t.base.IssueQuery(q)
	}
}

// Finish settles the trial and collects its result: every still-open
// query gets its terminal verdict, the trace sinks close, aggregate
// answers are scored against ground truth, and the invariant checker
// gives its verdict. Call it once, after the last Run.
func (t *Trial) Finish() (TrialResult, error) {
	// Settle before the stats are read.
	t.base.FinalizeVerdicts()
	tr := &t.res
	if t.rec != nil {
		if err := t.rec.Close(); err != nil {
			return TrialResult{}, fmt.Errorf("exp: closing trace sinks (trial %d): %w", t.trial, err)
		}
	}
	if t.pr != nil {
		s := t.pr.Snapshot()
		tr.Prof = &s
	}

	// An aggregate over an empty match set has no defined answer; when
	// ground truth agrees nothing matched, that is a correct (error-free)
	// outcome, not a missing one.
	for _, rec := range t.aggLog {
		ans, _, ok := t.base.AggAnswer(rec.qid)
		if ok || !rec.gtValid {
			tr.Agg.Answered++
		}
		if ok && rec.gtValid {
			tr.Agg.ErrSum += math.Abs(ans-rec.gt) / max(math.Abs(rec.gt), 1)
		}
	}
	if t.chk != nil {
		if vs := t.violations(); len(vs) != 0 {
			return TrialResult{}, fmt.Errorf("exp: invariant violations (policy %s, trial %d, seed %d):\n  %s",
				t.cfg.Policy, t.trial, t.seed, strings.Join(vs, "\n  "))
		}
	}

	tr.Breakdown = t.ctr.Snapshot()
	tr.Stats = t.Stats()
	tr.ReplyBytes = t.ctr.SentBytesClass(metrics.Reply)
	tr.AggReplyBytes = t.ctr.SentBytesClass(metrics.AggReply)
	tr.Energy = metrics.DefaultEnergyModel().Energy(t.ctr, t.cfg.N, float64(t.cfg.Duration)/1000)
	for _, c := range metrics.Classes() {
		if c != metrics.Beacon {
			tr.RootSent += t.ctr.SentBy(0, c)
			tr.RootRecv += t.ctr.ReceivedBy(0, c)
		}
	}
	return *tr, nil
}

// violations hands the checker what it needs to know at the end of the
// run and returns its verdict. Conservation needs what is legitimately
// still in flight: batch buffers, send queues, frames on the air.
func (t *Trial) violations() []string {
	chk := t.chk
	for _, nd := range t.nodes[1:] {
		for _, r := range nd.PendingBatchReadings() {
			chk.InFlightReading(r.Producer, r.Time)
		}
	}
	inFlight := func(p *netsim.Packet) {
		if dm, ok := p.Payload.(*core.DataMsg); ok {
			for _, r := range dm.Readings {
				chk.InFlightReading(r.Producer, r.Time)
			}
		}
	}
	t.net.ForEachQueued(func(_ netsim.NodeID, p *netsim.Packet) { inFlight(p) })
	t.net.ForEachInFlight(inFlight)
	hist := t.base.IndexHistory()
	ids := make([]uint16, len(hist))
	for i, ix := range hist {
		ids[i] = ix.ID
	}
	chk.RecordIndexIDs(ids)
	for _, rec := range t.aggLog {
		got, expected := t.base.AggContribs(rec.qid)
		chk.AggResult(rec.qid, got, expected)
	}
	if t.cfg.QueryDeadline > 0 {
		// Reliability-layer contracts: every issued query settles to a
		// terminal verdict exactly once, and degraded answers never report
		// tighter bounds than the summary math allows.
		recs := t.base.VerdictLog()
		infos := make([]verdictInfo, len(recs))
		for i, r := range recs {
			infos[i] = verdictInfo{
				QID:          r.QID,
				Terminal:     r.Verdict != core.VerdictOpen,
				Degraded:     r.Verdict == core.VerdictDegraded,
				ErrBound:     r.ErrBound,
				SummaryBound: r.SummaryBound,
			}
		}
		chk.QueryVerdicts(t.base.QueryJournalLen(), infos)
	}
	return chk.Violations()
}

// aggGroundTruth evaluates the aggregate's true answer over the
// readings stored anywhere (node stores plus the base's) matching the
// value and time ranges, each (producer, sample time) once however many
// nodes store a copy, as the base's tuple plan folds it. ok is false
// when nothing matches (and for COUNT the zero answer is still valid).
// The matches collect in the trial's scratch buffer, so a query costs
// no allocation once the buffer has grown.
func (t *Trial) aggGroundTruth(q query.AggQuery) (float64, bool) {
	found := t.aggScratch[:0]
	scan := func(buf *core.DataBuffer) {
		buf.Select(q.ValueLo, q.ValueHi, int64(q.TimeLo), int64(q.TimeHi), func(r core.Reading) {
			found = append(found, r)
		})
	}
	scan(t.base.Store())
	for _, n := range t.nodes[1:] {
		scan(n.Store())
	}
	slices.SortFunc(found, func(a, b core.Reading) int {
		return cmp.Or(cmp.Compare(a.Producer, b.Producer), cmp.Compare(a.Time, b.Time))
	})
	found = slices.CompactFunc(found, func(a, b core.Reading) bool {
		return a.Producer == b.Producer && a.Time == b.Time
	})
	t.aggScratch = found
	if q.Op == query.OpQuantile {
		if len(found) == 0 {
			return 0, false
		}
		slices.SortFunc(found, func(a, b core.Reading) int { return cmp.Compare(a.Value, b.Value) })
		return float64(found[min(int(q.Quantile*float64(len(found))), len(found)-1)].Value), true
	}
	var part query.Partial
	for _, r := range found {
		part.Add(r.Value)
	}
	return part.Answer(q.Op)
}
