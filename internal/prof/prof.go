// Package prof is the simulator's wall-clock attribution profiler: it
// answers "where does the wall time of a run actually go" with a
// per-phase breakdown of the netsim event loop, the instrument an
// optimisation claim about the engine is checked with.
//
// Attribution model: while a profiled Simulator.Run is executing,
// every instant belongs to exactly one Phase. The event loop
// (Simulator.dispatch) opens each popped event with BeginEvent
// (attributing the pop/dispatch gap to PhaseHeap and the event body to
// the phase recorded at schedule time), and instrumented inner spans —
// reindex inside a timer event, the planner inside a harness closure,
// trace emission anywhere — re-attribute nested work with Enter/Exit.
// Phase wall times therefore sum to the loop wall time by
// construction: coverage is structural, not sampled. BeginEvent also
// feeds the heap-shape histogram: queue depth at pop.
//
// Quarantine contract (DESIGN.md §17): this package is the only
// simulation-adjacent code allowed to read the wall clock (scooplint's
// walltime allowlist names it explicitly, next to sweep). Wall time
// flows out of it exclusively through Snapshot — exp.TrialResult.Prof,
// which bench/ turns into its per-layer shares — and never into
// simulation behaviour or committed artifacts: a profiled run is
// byte-identical to an unprofiled one.
//
// Cost contract: a nil *Profiler is valid and means "profiling off".
// Every method nil-checks and returns immediately — zero allocations,
// one predictable branch — so instrumentation sites stay in the hot
// path unconditionally (the trace.Recorder pattern, held by
// TestDisabledHotPathZeroAlloc and TestEnabledHotPathZeroAlloc).
package prof

import (
	"time"

	"scoop/internal/histogram"
)

// Phase identifies one attribution bucket of the event loop.
type Phase uint8

// The phase taxonomy. PhaseHeap is the zero value on purpose: an
// event scheduled without an explicit phase, and the loop's own
// pop/dispatch bookkeeping, both land in it rather than in a protocol
// bucket.
const (
	// PhaseHeap is event-loop bookkeeping: heap pop/sift, dispatch,
	// and any instant not claimed by another phase.
	PhaseHeap Phase = iota
	// PhaseRadio is radio delivery fan-out: end-of-airtime delivery
	// tasks handing frames to Receive/Snoop callbacks.
	PhaseRadio
	// PhaseMAC is MAC attempt steps (backoff, carrier sense, retry)
	// and protocol timer dispatch.
	PhaseMAC
	// PhaseNodeRecv is node-side packet handling.
	PhaseNodeRecv
	// PhaseBaseRecv is basestation-side packet handling.
	PhaseBaseRecv
	// PhaseReindex is basestation index recomputation (core.Base.Remap).
	PhaseReindex
	// PhasePlanner is aggregate-query planning (statistics snapshots,
	// estimates, query.Choose).
	PhasePlanner
	// PhaseAggCombine is in-network aggregation: partial merging,
	// flushing and base-side folding.
	PhaseAggCombine
	// PhaseChunk is mapping-chunk dissemination (Trickle sends and
	// node-side chunk assembly).
	PhaseChunk
	// PhaseTraceEmit is flight-recorder emission and sink fan-out.
	PhaseTraceEmit
	// PhaseHarness is experiment-harness closures scheduled through
	// the public At/After API: query ticks, dynamics events, window
	// sampling.
	PhaseHarness

	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseHeap:       "heap",
	PhaseRadio:      "radio",
	PhaseMAC:        "mac-timer",
	PhaseNodeRecv:   "node-recv",
	PhaseBaseRecv:   "base-recv",
	PhaseReindex:    "reindex",
	PhasePlanner:    "planner",
	PhaseAggCombine: "agg-combine",
	PhaseChunk:      "chunk",
	PhaseTraceEmit:  "trace-emit",
	PhaseHarness:    "harness",
}

// String returns the phase's name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// Profiler accumulates wall-clock attribution for one simulation run.
// It belongs to the run's single event-loop goroutine (not safe for
// concurrent use). The nil Profiler is the disabled state: every
// method returns immediately.
type Profiler struct {
	wall  [NumPhases]int64 // attributed wall ns per phase
	count [NumPhases]int64 // attributed spans per phase
	depth histogram.Log2   // heap depth at pop (popped event included)

	loopNs  int64 // wall ns between LoopBegin and LoopEnd, summed
	events  int64 // events popped under profiling
	base    time.Time
	mark    int64 // nanotime of the last attribution boundary
	loopAt  int64 // nanotime of the current LoopBegin
	cur     Phase
	running bool
}

// New returns an enabled profiler.
func New() *Profiler {
	return &Profiler{base: time.Now()}
}

// nanotime returns monotonic ns since the profiler was created.
// time.Since reads the runtime's monotonic clock; no allocation.
func (p *Profiler) nanotime() int64 { return int64(time.Since(p.base)) }

// flush attributes the wall time since the last boundary to the
// current phase and advances the boundary.
func (p *Profiler) flush(now int64) {
	p.wall[p.cur] += now - p.mark
	p.mark = now
}

// LoopBegin marks the start of a profiled event-loop section. The
// section opens in PhaseHeap.
func (p *Profiler) LoopBegin() {
	if p == nil || p.running {
		return
	}
	p.running = true
	p.cur = PhaseHeap
	now := p.nanotime()
	p.mark = now
	p.loopAt = now
}

// LoopEnd closes the profiled section, flushing the tail into the
// current phase and accumulating the section's total wall time.
func (p *Profiler) LoopEnd() {
	if p == nil || !p.running {
		return
	}
	now := p.nanotime()
	p.flush(now)
	p.loopNs += now - p.loopAt
	p.running = false
}

// BeginEvent opens one popped heap event: the time since the previous
// boundary goes to PhaseHeap (or whatever phase was current), the
// event body will accrue to ph, and the heap-shape histogram records
// the queue depth at pop.
func (p *Profiler) BeginEvent(ph Phase, depth int) {
	if p == nil || !p.running {
		return
	}
	p.flush(p.nanotime())
	p.cur = ph
	p.count[ph]++
	p.events++
	p.depth.Record(int64(depth))
}

// EndEvent closes the current event, returning attribution to
// PhaseHeap for the next pop.
func (p *Profiler) EndEvent() {
	if p == nil || !p.running {
		return
	}
	p.flush(p.nanotime())
	p.cur = PhaseHeap
}

// Enter re-attributes a nested span to ph (reindex inside a timer
// event, trace emission inside anything) and returns the phase to
// restore with Exit. Instrumentation sites call it unconditionally;
// on a nil or idle profiler it is a branch and nothing else.
func (p *Profiler) Enter(ph Phase) Phase {
	if p == nil || !p.running {
		return PhaseHeap
	}
	prev := p.cur
	p.flush(p.nanotime())
	p.cur = ph
	p.count[ph]++
	return prev
}

// Exit closes an Enter span, restoring the surrounding phase.
func (p *Profiler) Exit(prev Phase) {
	if p == nil || !p.running {
		return
	}
	p.flush(p.nanotime())
	p.cur = prev
}

// Snapshot is the Profiler's accumulated state, copied out for
// reporting. Plain data: safe to hand across goroutines. bench/ reads
// Wall (through AttributedNs and Coverage too), Events and Depth;
// Count is what tests use to prove an instrumented span fired, which
// Wall > 0 cannot on a coarse clock.
type Snapshot struct {
	LoopNs int64 // total profiled loop wall time, ns
	Events int64 // heap events popped under profiling
	Wall   [NumPhases]int64
	Count  [NumPhases]int64
	Depth  histogram.Log2
}

// Snapshot copies the accumulated attribution out of the profiler.
// Valid any time the loop is not mid-event (exp takes it after Run).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return Snapshot{
		LoopNs: p.loopNs,
		Events: p.events,
		Wall:   p.wall,
		Count:  p.count,
		Depth:  p.depth,
	}
}

// AttributedNs returns the summed per-phase wall time. By
// construction it equals LoopNs up to clock granularity.
func (s *Snapshot) AttributedNs() int64 {
	var t int64
	for _, w := range s.Wall {
		t += w
	}
	return t
}

// Coverage returns the fraction of loop wall time attributed to named
// phases (1.0 structurally; bench reports it as prof.coverage).
func (s *Snapshot) Coverage() float64 {
	if s.LoopNs == 0 {
		return 0
	}
	return float64(s.AttributedNs()) / float64(s.LoopNs)
}
