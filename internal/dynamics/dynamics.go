// Package dynamics injects mid-run perturbations into a running
// simulation: node death and (re)join, network-wide and per-link loss
// ramps, and workload drift (the data distribution walking across the
// value domain, the query hot-range migrating). A Script is a timeline
// of such events; Attach schedules them onto the simulator against a
// set of Targets (the radio network, a driftable data source, a
// driftable query generator).
//
// The point of the package is to exercise Scoop's adaptive loop over
// time. The paper's central claim (§5) is that the basestation
// periodically re-collects statistics and redistributes the
// value→node index as distributions, workloads and membership change;
// a static 40-minute run never stresses that loop. Scripts are pure
// data, built deterministically from a seed, so perturbed runs remain
// exactly reproducible. See DESIGN.md §8 for the design rationale.
package dynamics

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"scoop/internal/netsim"
	"scoop/internal/trace"
)

// Kind discriminates perturbation events.
type Kind uint8

// Event kinds.
const (
	// NodeDown kills Node: it stops sending, receiving and firing
	// timers, mid-air frames to it are lost.
	NodeDown Kind = iota
	// NodeUp reboots Node: it rejoins with fresh protocol state (a
	// rebooted mote loses its RAM: routing table, index, send queue).
	NodeUp
	// NetLoss sets the network-wide interference floor to Value (a
	// loss fraction in [0,1)), on top of the run's base link loss.
	// It rewrites every link's scale, so it overrides any earlier
	// LinkLoss adjustments; schedule per-link events after the last
	// network-wide one they must survive.
	NetLoss
	// LinkLoss sets the directed link Src→Dst's extra loss to Value.
	LinkLoss
	// DataShift sets the data-distribution offset to Value, a signed
	// fraction of the value domain (0.4 = every sample shifted up by
	// 40% of the domain, clamped at the edges).
	DataShift
	// QueryShift moves the query hot-range center to Value, a fraction
	// of the value domain in [0,1].
	QueryShift
	// BlackoutStart blocks every directed link into or out of the node
	// stripe [Src, Dst] — a regional blackout. BlackoutEnd lifts it.
	// Windows over the same stripe must not overlap.
	BlackoutStart
	// BlackoutEnd ends the blackout over [Src, Dst].
	BlackoutEnd
	// PartitionStart blocks every directed link between {id < Node} and
	// {id >= Node} — a clean network partition at the boundary.
	// PartitionEnd heals it. Cut windows must not overlap.
	PartitionStart
	// PartitionEnd heals the partition at boundary Node.
	PartitionEnd
	// BurstStart begins a correlated burst-loss window: every link's
	// delivery probability is multiplied by (1 - Value) until BurstEnd.
	// Burst windows must not overlap.
	BurstStart
	// BurstEnd ends the burst-loss window.
	BurstEnd
	// BaseRestart reboots the basestation process: node 0 loses its RAM
	// (pending query state, send queue) and recovers from its durable
	// query log. Distinct from NodeDown/NodeUp, which must never target
	// the base.
	BaseRestart
)

// String returns the kind's report name (also the metrics mark label).
func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case NetLoss:
		return "net-loss"
	case LinkLoss:
		return "link-loss"
	case DataShift:
		return "data-shift"
	case QueryShift:
		return "query-shift"
	case BlackoutStart:
		return "blackout-start"
	case BlackoutEnd:
		return "blackout-end"
	case PartitionStart:
		return "partition-start"
	case PartitionEnd:
		return "partition-end"
	case BurstStart:
		return "burst-start"
	case BurstEnd:
		return "burst-end"
	case BaseRestart:
		return "base-restart"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled perturbation. Which fields matter depends on
// Kind; the rest stay zero.
type Event struct {
	At       netsim.Time
	Kind     Kind
	Node     netsim.NodeID // NodeDown, NodeUp
	Src, Dst netsim.NodeID // LinkLoss
	Value    float64       // NetLoss, LinkLoss, DataShift, QueryShift
}

// Script is a timeline of perturbations. The zero value is an empty,
// valid script. Events need not be pre-sorted; Attach orders them.
type Script struct {
	Events []Event
}

// Empty reports whether the script schedules nothing.
func (s *Script) Empty() bool { return s == nil || len(s.Events) == 0 }

// HasData reports whether the script contains data-distribution
// shifts (the harness then wraps the source in a workload.Drift).
func (s *Script) HasData() bool { return s.has(DataShift) }

// HasChurn reports whether the script kills or revives nodes.
func (s *Script) HasChurn() bool { return s.has(NodeDown) || s.has(NodeUp) }

func (s *Script) has(k Kind) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Append merges other's events into s (order is irrelevant; Attach
// sorts). It returns s for chaining.
func (s *Script) Append(other Script) *Script {
	s.Events = append(s.Events, other.Events...)
	return s
}

// Validate checks every event against a run of n nodes (including the
// basestation, node 0) lasting duration. The basestation must never
// die: the paper's protocol has a single, well-provisioned root.
func (s *Script) Validate(n int, duration netsim.Time) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.At < 0 || e.At > duration {
			return fmt.Errorf("dynamics: event %d (%s) at %v outside run [0,%v]", i, e.Kind, e.At, duration)
		}
		switch e.Kind {
		case NodeDown, NodeUp:
			if e.Node <= 0 || int(e.Node) >= n {
				return fmt.Errorf("dynamics: event %d (%s) targets node %d; must be a non-base node in [1,%d)", i, e.Kind, e.Node, n)
			}
		case NetLoss:
			if e.Value < 0 || e.Value >= 1 {
				return fmt.Errorf("dynamics: event %d net-loss %v outside [0,1)", i, e.Value)
			}
		case LinkLoss:
			if e.Value < 0 || e.Value >= 1 {
				return fmt.Errorf("dynamics: event %d link-loss %v outside [0,1)", i, e.Value)
			}
			if int(e.Src) >= n || int(e.Dst) >= n || e.Src == e.Dst {
				return fmt.Errorf("dynamics: event %d link-loss on invalid link %d->%d", i, e.Src, e.Dst)
			}
		case DataShift:
			if e.Value < -1 || e.Value > 1 {
				return fmt.Errorf("dynamics: event %d data-shift %v outside [-1,1]", i, e.Value)
			}
		case QueryShift:
			if e.Value < 0 || e.Value > 1 {
				return fmt.Errorf("dynamics: event %d query-shift %v outside [0,1]", i, e.Value)
			}
		case BlackoutStart, BlackoutEnd:
			if e.Src < 1 || e.Src > e.Dst || int(e.Dst) >= n {
				return fmt.Errorf("dynamics: event %d (%s) stripe [%d,%d] not within the non-base nodes [1,%d)", i, e.Kind, e.Src, e.Dst, n)
			}
		case PartitionStart, PartitionEnd:
			if e.Node < 1 || int(e.Node) >= n {
				return fmt.Errorf("dynamics: event %d (%s) boundary %d outside [1,%d)", i, e.Kind, e.Node, n)
			}
		case BurstStart:
			if e.Value <= 0 || e.Value >= 1 {
				return fmt.Errorf("dynamics: event %d burst-start loss %v outside (0,1)", i, e.Value)
			}
		case BurstEnd, BaseRestart:
			// No parameters beyond the timestamp.
		default:
			return fmt.Errorf("dynamics: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// DataShifter is a workload source whose distribution can be walked
// across the domain mid-run (workload.Drift implements it).
type DataShifter interface {
	SetShift(frac float64)
}

// QueryShifter is a query generator whose hot range can migrate
// (workload.RangeGen implements it).
type QueryShifter interface {
	SetHotCenter(frac float64)
}

// Targets binds a script to one trial's mutable pieces. Net is
// required; the rest are optional — events without a matching target
// are silently skipped (a churn-only run needs no DataShifter).
type Targets struct {
	Net *netsim.Network
	// LossBase is the run's standing network-wide link scale (1 minus
	// the configured base link loss); NetLoss events compose with it.
	// 0 is treated as 1 (no standing degradation).
	LossBase float64
	Data     DataShifter
	Query    QueryShifter
	// Observer, when non-nil, is called as each event is applied —
	// the hook the experiment harness uses to mark perturbations on
	// its transition-metrics timeline.
	Observer func(Event)
	// Trace, when non-nil, receives a Perturb event for every applied
	// loss or drift perturbation (Flag: the Kind, Value: the knob
	// scaled by 1e6). Churn is not re-emitted here: netsim's
	// Kill/Restart already record NodeDown/NodeRestart.
	Trace *trace.Recorder
}

// Attach schedules every event onto sim. Events are applied in (time,
// script order); ties at the same instant keep their relative order.
// Call after Network.Start and before Simulator.Run.
func (s *Script) Attach(sim *netsim.Simulator, t Targets) {
	if s.Empty() {
		return
	}
	if t.Net == nil {
		panic("dynamics: Attach with nil Targets.Net")
	}
	base := t.LossBase
	if base <= 0 {
		base = 1
	}
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		e := e
		sim.At(e.At, func() {
			if !apply(e, t, base) {
				return
			}
			if e.Kind != NodeDown && e.Kind != NodeUp && e.Kind != BaseRestart {
				t.Trace.Emit(trace.Event{Kind: trace.Perturb, Node: uint16(e.Src),
					Flag: uint8(e.Kind), Value: int64(e.Value * 1e6)})
			}
			if t.Observer != nil {
				t.Observer(e)
			}
		})
	}
}

// apply executes one event, reporting whether it had a target.
func apply(e Event, t Targets, lossBase float64) bool {
	switch e.Kind {
	case NodeDown:
		t.Net.Kill(e.Node)
	case NodeUp:
		t.Net.Restart(e.Node)
	case NetLoss:
		t.Net.ScaleAllLinks(lossBase * (1 - e.Value))
	case LinkLoss:
		t.Net.ScaleLink(e.Src, e.Dst, lossBase*(1-e.Value))
	case DataShift:
		if t.Data == nil {
			return false
		}
		t.Data.SetShift(e.Value)
	case QueryShift:
		if t.Query == nil {
			return false
		}
		t.Query.SetHotCenter(e.Value)
	case BlackoutStart:
		t.Net.SetBlackout(e.Src, e.Dst, true)
	case BlackoutEnd:
		t.Net.SetBlackout(e.Src, e.Dst, false)
	case PartitionStart:
		t.Net.SetPartition(e.Node, true)
	case PartitionEnd:
		t.Net.SetPartition(e.Node, false)
	case BurstStart:
		t.Net.SetBurst(e.Value)
	case BurstEnd:
		t.Net.SetBurst(0)
	case BaseRestart:
		// Restart re-runs the base app's Init: RAM state (pending
		// queries, send queue) is lost; durable state (records, query
		// log) survives and drives recovery. netsim emits the
		// NodeRestart/PacketPurge trace events itself.
		t.Net.Restart(0)
	}
	return true
}

// Churn builds a membership-churn timeline for an n-node network:
// every `every` from start to stop, frac of the n-1 non-base nodes
// (at least one) go down, each rebooting after downFor. Victims are
// drawn deterministically from seed; a node already down is never
// re-picked, so down/up pairs nest cleanly.
func Churn(n int, start, stop, every, downFor netsim.Time, frac float64, seed int64) Script {
	if n < 2 || frac <= 0 || every <= 0 || downFor <= 0 || stop < start {
		return Script{}
	}
	k := int(frac*float64(n-1) + 0.5)
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	upAt := make(map[netsim.NodeID]netsim.Time)
	var s Script
	for t := start; t <= stop; t += every {
		var candidates []netsim.NodeID
		for id := 1; id < n; id++ {
			if upAt[netsim.NodeID(id)] <= t {
				candidates = append(candidates, netsim.NodeID(id))
			}
		}
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		for _, id := range candidates[:min(k, len(candidates))] {
			s.Events = append(s.Events,
				Event{At: t, Kind: NodeDown, Node: id},
				Event{At: t + downFor, Kind: NodeUp, Node: id})
			upAt[id] = t + downFor
		}
	}
	return s
}

// DataDrift builds a data-distribution ramp: the shift offset walks
// from 0 to total (a fraction of the domain) in `steps` equal
// increments between start and stop. steps==1 is an abrupt shift at
// stop.
func DataDrift(start, stop netsim.Time, steps int, total float64) Script {
	if steps < 1 {
		steps = 1
	}
	if stop < start {
		stop = start
	}
	var s Script
	for i := 1; i <= steps; i++ {
		at := start + netsim.Time(int64(stop-start)*int64(i)/int64(steps))
		v := total * float64(i) / float64(steps)
		s.Events = append(s.Events, Event{At: at, Kind: DataShift, Value: v})
	}
	return s
}

// Standard is the sweep engine's canonical perturbation script for a
// run of the given shape: churn cycles an eighth into the active
// period through an eighth before the end (90 s cadence, 45 s
// downtime, churnFrac of the nodes per cycle), and the data
// distribution ramps by driftFrac of the domain across the middle
// quarter of the active period in four steps. Either knob at 0
// disables that perturbation.
func Standard(n int, warmup, duration netsim.Time, churnFrac, driftFrac float64, seed int64) Script {
	active := duration - warmup
	var s Script
	if churnFrac > 0 && active > 0 {
		const every, down = 90 * netsim.Second, 45 * netsim.Second
		start := warmup + active/8
		stop := duration - active/8
		// Reboots happen `down` after each kill; keep the last round
		// early enough that every NodeUp lands inside the run.
		if latest := duration - down; stop > latest {
			stop = latest
		}
		s.Append(Churn(n, start, stop, every, down, churnFrac, seed))
	}
	if driftFrac != 0 && active > 0 {
		start := warmup + active*3/8
		stop := warmup + active*5/8
		s.Append(DataDrift(start, stop, 4, driftFrac))
	}
	return s
}
