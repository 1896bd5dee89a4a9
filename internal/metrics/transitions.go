package metrics

// Transition metrics: how a run behaves *through* a perturbation, not
// just on average. The experiment harness samples cumulative run
// statistics into fixed-width windows and marks each injected
// perturbation; this file turns those into the numbers the dynamics
// experiments report — delivery ratio before/during/after the
// perturbed span, staleness-induced misroutes, data cost per reading,
// and reconvergence time (how long after the last perturbation the
// network takes to deliver like it did before the first).
//
// Times are virtual milliseconds as plain int64: this package must
// not import netsim (netsim imports metrics).

// TransitionWindow is one fixed-width sample of run statistics: the
// deltas of the cumulative counters over [Start,End).
type TransitionWindow struct {
	Start, End int64

	Produced      int64 // readings sampled
	StoredUnique  int64 // distinct readings stored at least once
	StoredAtOwner int64 // routed readings that reached their owner
	StoredAtBase  int64 // routed readings that washed up at the base

	RepliesExpected int64 // targeted nodes across queries issued
	RepliesReceived int64 // their replies that made it back

	Msgs float64 // transmissions, beacons excluded
	Data float64 // data-class transmissions
}

// DeliveryRatio is the fraction of produced readings stored at least
// once during the window.
func (w TransitionWindow) DeliveryRatio() float64 {
	if w.Produced == 0 {
		return 0
	}
	return float64(w.StoredUnique) / float64(w.Produced)
}

// MisrouteRatio is the fraction of routed readings that missed their
// owner and washed up at the base — under a stale index this is what
// rises first.
func (w TransitionWindow) MisrouteRatio() float64 {
	routed := w.StoredAtOwner + w.StoredAtBase
	if routed == 0 {
		return 0
	}
	return float64(w.StoredAtBase) / float64(routed)
}

// CostPerReading is data-class transmissions per produced reading —
// the per-window view of the paper's cost metric, and the number the
// drift-recovery experiments watch.
func (w TransitionWindow) CostPerReading() float64 {
	if w.Produced == 0 {
		return 0
	}
	return w.Data / float64(w.Produced)
}

// Mark is one applied perturbation.
type Mark struct {
	At   int64
	Kind string
}

// Timeline is a run's transition record: windows plus perturbation
// marks, both in time order.
type Timeline struct {
	Windows []TransitionWindow
	Marks   []Mark
}

// AddMark records a perturbation applied at virtual time at.
func (t *Timeline) AddMark(at int64, kind string) {
	t.Marks = append(t.Marks, Mark{At: at, Kind: kind})
}

// span returns the first and last mark times (ok=false without marks).
func (t *Timeline) span() (first, last int64, ok bool) {
	if len(t.Marks) == 0 {
		return 0, 0, false
	}
	first, last = t.Marks[0].At, t.Marks[0].At
	for _, m := range t.Marks[1:] {
		if m.At < first {
			first = m.At
		}
		if m.At > last {
			last = m.At
		}
	}
	return first, last, true
}

// TransitionSummary condenses a timeline around its perturbed span.
type TransitionSummary struct {
	// Delivery ratios before the first mark, between first and last
	// mark (inclusive of overlapping windows), and after the last.
	DeliveryBefore, DeliveryDuring, DeliveryAfter float64
	// Misroute ratios over the same three spans.
	MisrouteBefore, MisrouteDuring, MisrouteAfter float64
	// Data cost per reading over the same three spans.
	CostBefore, CostDuring, CostAfter float64
	// ReconvergenceMS is the virtual time from the last mark until the
	// start of the first window (at or after it) from which delivery
	// stays within tol of DeliveryBefore; -1 when delivery never
	// recovers within the recorded timeline.
	ReconvergenceMS int64
}

// Summarize computes the transition summary with the given relative
// delivery tolerance (e.g. 0.05: recovered means within 5% of the
// pre-perturbation delivery ratio). ok is false when the timeline has
// no marks or no windows before the first mark.
func (t *Timeline) Summarize(tol float64) (TransitionSummary, bool) {
	first, last, ok := t.span()
	if !ok || len(t.Windows) == 0 {
		return TransitionSummary{}, false
	}
	var s TransitionSummary
	var before, during, after []TransitionWindow
	for _, w := range t.Windows {
		switch {
		case w.End <= first:
			before = append(before, w)
		case w.Start >= last:
			after = append(after, w)
		default:
			during = append(during, w)
		}
	}
	if len(before) == 0 {
		return TransitionSummary{}, false
	}
	mean := func(ws []TransitionWindow, f func(TransitionWindow) float64) float64 {
		if len(ws) == 0 {
			return 0
		}
		sum := 0.0
		for _, w := range ws {
			sum += f(w)
		}
		return sum / float64(len(ws))
	}
	s.DeliveryBefore = mean(before, TransitionWindow.DeliveryRatio)
	s.DeliveryDuring = mean(during, TransitionWindow.DeliveryRatio)
	s.DeliveryAfter = mean(after, TransitionWindow.DeliveryRatio)
	s.MisrouteBefore = mean(before, TransitionWindow.MisrouteRatio)
	s.MisrouteDuring = mean(during, TransitionWindow.MisrouteRatio)
	s.MisrouteAfter = mean(after, TransitionWindow.MisrouteRatio)
	s.CostBefore = mean(before, TransitionWindow.CostPerReading)
	s.CostDuring = mean(during, TransitionWindow.CostPerReading)
	s.CostAfter = mean(after, TransitionWindow.CostPerReading)

	s.ReconvergenceMS = -1
	floor := s.DeliveryBefore * (1 - tol)
	// Reconvergence: the first post-perturbation window from which
	// delivery never drops below the floor again.
	for i, w := range t.Windows {
		if w.Start < last {
			continue
		}
		good := true
		for _, later := range t.Windows[i:] {
			if later.DeliveryRatio() < floor {
				good = false
				break
			}
		}
		if good {
			s.ReconvergenceMS = w.Start - last
			if s.ReconvergenceMS < 0 {
				s.ReconvergenceMS = 0
			}
			break
		}
	}
	return s, true
}
