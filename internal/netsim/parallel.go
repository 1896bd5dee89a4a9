package netsim

import "scoop/internal/prof"

// Region-parallel event loop (DESIGN.md §18).
//
// The coordinator advances all regions in conservative lookahead
// windows aligned to the visibility grid (pitch W = LookaheadWindow):
// each region's goroutine drains its own heap for events in [T, E),
// then the coordinator, alone, exchanges state at the barrier —
// publishing ghost transmissions, converting cross-region outbox
// entries into scheduled deliveries, and running due control-plane
// events — before granting the next window.
//
// Safety: every frame's airtime is ≥ W, so a cross-region delivery
// lands at or after the barrier that ships it, and the windowed
// visibility rule only ever consults frames begun before the current
// grid point — all exchanged at the previous barrier. No region can
// observe same-window cross-region timing, which is why K and
// GOMAXPROCS cannot change results.
//
// Memory model: workers only touch their own region between the
// channel sends that bracket a window, and the coordinator only
// touches region state while every worker is parked — each barrier's
// channel pair carries the happens-before edges both ways.

type regionWorker struct {
	end  chan Time
	done chan struct{}
}

// runParallel drives a K>1 network to `until` (events exactly at
// `until` still run, matching Simulator.Run).
func (n *Network) runParallel(until Time) {
	w := n.window
	ctl := n.Sim
	// Control bodies (queries, dynamics, purges) emit through the parent
	// recorder and any region fork, so a control event stamps the whole
	// family with its canonical key and they merge into serial order.
	var stampCtl func(origin int32, oseq uint64)
	if n.Trace != nil {
		stampCtl = n.Trace.SetStampCtl
	}
	ctl.prof.LoopBegin()
	defer ctl.prof.LoopEnd()

	workers := make([]regionWorker, len(n.regs))
	for i, reg := range n.regs {
		rw := regionWorker{end: make(chan Time), done: make(chan struct{})}
		workers[i] = rw
		//scoop:allow goroutine region worker: confined to its own regionState; barrier channels carry the happens-before edges
		go func(reg *regionState, rw regionWorker) {
			var stamp func(origin int32, oseq uint64)
			if reg.trace != nil {
				stamp = reg.trace.SetStamp
			}
			for end := range rw.end {
				reg.sim.runWindow(end, stamp)
				rw.done <- struct{}{}
			}
		}(reg, rw)
	}
	defer func() {
		for _, rw := range workers {
			close(rw.end)
		}
	}()

	T := ctl.Now()
	for {
		// Run control events due at or before T. They execute with every
		// region quiesced at the barrier and, like the serial heap's
		// ctlOrigin ordering, before any node event at the same time.
		for ctl.dispatch(min(T, until), stampCtl) {
		}
		if ctl.Halted() || T > until {
			break
		}

		// The next control boundary: the earliest pending control event,
		// or until+1 so events landing exactly at `until` still run.
		next := until + 1
		if tc, ok := ctl.nextAt(); ok && tc <= until {
			next = tc
		}

		// Earliest pending node event across regions.
		var mr Time
		have := false
		for _, reg := range n.regs {
			if t, ok := reg.sim.nextAt(); ok && (!have || t < mr) {
				mr, have = t, true
			}
		}
		if !have || mr >= next {
			// No node work before the control boundary: jump straight to
			// it. Nothing transmits in between, so skipping the empty
			// grid windows exchanges nothing.
			if next > until {
				break
			}
			n.advanceRegions(next)
			T = next
			continue
		}
		if f := gridFloor(mr, w); f > T {
			T = f // skip grid windows with no events anywhere
		}
		E := gridNext(T, w)
		if next < E {
			E = next // a control event ends this window early
		}

		for _, rw := range workers {
			rw.end <- E
		}
		for _, rw := range workers {
			<-rw.done
		}
		n.exchange(E)
		T = E
	}
	n.advanceRegions(until)
	if !ctl.Halted() && ctl.Now() < until {
		ctl.now = until
	}
}

// exchange is the barrier body: runs with every worker parked.
func (n *Network) exchange(E Time) {
	// Ghost transmissions started this window become audible, from the
	// next grid point, in the view of every other region that can ask
	// about one of their receivers. Append order cannot matter: carrier
	// sense is an OR over the list and the collision fold sorts its
	// interferers.
	for _, reg := range n.regs {
		for _, tx := range reg.ghosts {
			if tx.end <= E {
				continue // already over; never visible off-region
			}
			base := n.Topo.linkBase[tx.src]
			for gi, lk := range n.Topo.OutLinks(tx.src) {
				for _, other := range n.regs {
					if other != reg && other.asks[lk.Dst] {
						other.hear(lk.Dst, base+int32(gi), tx, E)
					}
				}
			}
		}
		reg.ghosts = reg.ghosts[:0]
	}
	// Cross-region deliveries: schedule each outbox entry in its target
	// region under the sender's canonical key. Airtime ≥ window pitch
	// guarantees e.at ≥ E, so the insertion is conservative-safe.
	for _, reg := range n.regs {
		for i := range reg.outbox {
			e := &reg.outbox[i]
			tgt := n.regs[e.to]
			d := tgt.newDelivery(n, &e.p)
			d.recv = append(d.recv, e.recv...)
			tgt.sim.scheduleOrigin(e.at, e.origin, e.oseq, d, prof.PhaseRadio)
			e.recv = nil
		}
		reg.outbox = reg.outbox[:0]
	}
	n.advanceRegions(E)
}

// advanceRegions moves every region clock (and the control clock)
// forward to t, never past `until` handling aside, never backward.
func (n *Network) advanceRegions(t Time) {
	for _, reg := range n.regs {
		if reg.sim.now < t && !reg.sim.halted {
			reg.sim.now = t
		}
	}
	if n.Sim.now < t {
		n.Sim.now = t
	}
}
