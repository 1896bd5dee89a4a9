package dynamics

import (
	"fmt"
	"math/rand/v2"

	"scoop/internal/netsim"
)

// This file builds the scripted fault primitives behind the query
// reliability campaign (DESIGN.md §19): regional blackouts, network
// partitions, correlated burst loss and basestation restarts. Like
// every other script builder they are pure functions of their
// parameters plus a seed, so a fault run is exactly reproducible: all
// fault events are control-plane events, applied between node events.

// Blackout scripts one regional blackout: every link into or out of
// the node stripe [lo, hi] is blocked from start to end.
func Blackout(lo, hi netsim.NodeID, start, end netsim.Time) Script {
	return Script{Events: []Event{
		{At: start, Kind: BlackoutStart, Src: lo, Dst: hi},
		{At: end, Kind: BlackoutEnd, Src: lo, Dst: hi},
	}}
}

// Partition scripts one network partition at the given node-ID
// boundary from start to end: no frame crosses between {id < boundary}
// and {id >= boundary} while the cut is active.
func Partition(boundary netsim.NodeID, start, end netsim.Time) Script {
	return Script{Events: []Event{
		{At: start, Kind: PartitionStart, Node: boundary},
		{At: end, Kind: PartitionEnd, Node: boundary},
	}}
}

// Bursts scripts periodic correlated burst-loss windows: every `every`
// from start to stop, all links lose an extra `loss` fraction for
// `width`. Windows never overlap (width is clamped below every).
func Bursts(start, stop, every, width netsim.Time, loss float64) Script {
	if every <= 0 || width <= 0 || loss <= 0 {
		return Script{}
	}
	if width >= every {
		width = every - netsim.Second
		if width <= 0 {
			return Script{}
		}
	}
	var s Script
	for t := start; t+width <= stop; t += every {
		s.Events = append(s.Events,
			Event{At: t, Kind: BurstStart, Value: loss},
			Event{At: t + width, Kind: BurstEnd})
	}
	return s
}

// BaseRestartAt scripts one basestation restart: at t the base loses
// its RAM (pending query state) and recovers from its durable query
// log.
func BaseRestartAt(t netsim.Time) Script {
	return Script{Events: []Event{{At: t, Kind: BaseRestart}}}
}

// FaultScenarios lists the named scenarios FaultScenario resolves, in
// campaign order.
func FaultScenarios() []string {
	return []string{"blackout", "partition", "burst", "baserestart", "campaign"}
}

// FaultScenario resolves a named fault scenario into a script shaped
// for a run of n nodes with the given warmup and duration. Window
// starts are jittered by up to 15 s from the seed so a multi-seed
// campaign does not always hit the protocol at the same phase; the
// script remains a pure function of (name, n, warmup, duration, seed).
func FaultScenario(name string, n int, warmup, duration netsim.Time, seed int64) (Script, error) {
	active := duration - warmup
	if n < 4 || active <= 0 {
		return Script{}, fmt.Errorf("dynamics: fault scenario %q needs n >= 4 and duration > warmup", name)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	jitter := func() netsim.Time { return netsim.Time(rng.Int64N(int64(15 * netsim.Second))) }

	// The blackout stripe is the second quarter of the non-base IDs;
	// the partition boundary splits the ID space in half.
	lo := netsim.NodeID(1 + (n-1)/4)
	hi := netsim.NodeID(1 + (n-1)/2)
	if int(hi) >= n {
		hi = netsim.NodeID(n - 1)
	}
	boundary := netsim.NodeID(n / 2)
	if boundary < 1 {
		boundary = 1
	}

	blackout := func() Script {
		start := warmup + active/4 + jitter()
		return Blackout(lo, hi, start, start+active/4)
	}
	partition := func() Script {
		start := warmup + active*3/8 + jitter()
		return Partition(boundary, start, start+active/4)
	}
	burst := func() Script {
		start := warmup + active/8 + jitter()
		return Bursts(start, warmup+active*7/8, 60*netsim.Second, 10*netsim.Second, 0.6)
	}
	baserestart := func() Script {
		return BaseRestartAt(warmup + active/2 + jitter())
	}

	var s Script
	switch name {
	case "blackout":
		s = blackout()
	case "partition":
		s = partition()
	case "burst":
		s = burst()
	case "baserestart":
		s = baserestart()
	case "campaign":
		// Everything at once, staggered so same-primitive windows never
		// overlap: bursts run through the active period while the
		// blackout, partition and a base restart land mid-run.
		s.Append(burst())
		s.Append(blackout())
		s.Append(partition())
		s.Append(baserestart())
	default:
		return Script{}, fmt.Errorf("dynamics: unknown fault scenario %q (want one of %v)", name, FaultScenarios())
	}
	if err := s.Validate(n, duration); err != nil {
		return Script{}, err
	}
	return s, nil
}
