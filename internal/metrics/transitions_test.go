package metrics

import "testing"

func win(start, end, produced, stored, atOwner, atBase int64, data float64) TransitionWindow {
	return TransitionWindow{
		Start: start, End: end,
		Produced: produced, StoredUnique: stored,
		StoredAtOwner: atOwner, StoredAtBase: atBase,
		Data: data, Msgs: data,
	}
}

func TestWindowRatios(t *testing.T) {
	w := win(0, 100, 50, 45, 30, 10, 100)
	if got := w.DeliveryRatio(); got != 0.9 {
		t.Fatalf("delivery = %v", got)
	}
	if got := w.MisrouteRatio(); got != 0.25 {
		t.Fatalf("misroute = %v", got)
	}
	if got := w.CostPerReading(); got != 2 {
		t.Fatalf("cost = %v", got)
	}
	var zero TransitionWindow
	if zero.DeliveryRatio() != 0 || zero.MisrouteRatio() != 0 || zero.CostPerReading() != 0 {
		t.Fatal("zero window must not divide by zero")
	}
}

func TestSummarizeSpans(t *testing.T) {
	tl := Timeline{Windows: []TransitionWindow{
		win(0, 100, 10, 10, 0, 0, 10),   // before
		win(100, 200, 10, 10, 0, 0, 10), // before
		win(200, 300, 10, 5, 2, 2, 30),  // during (overlaps marks at 250, 350)
		win(300, 400, 10, 6, 2, 2, 30),  // during
		win(400, 500, 10, 7, 4, 1, 20),  // after (dip below floor)
		win(500, 600, 10, 10, 5, 0, 12), // after, recovered
		win(600, 700, 10, 10, 5, 0, 11), // after, stays recovered
	}}
	tl.AddMark(250, "data-shift")
	tl.AddMark(350, "node-down")

	s, ok := tl.Summarize(0.05)
	if !ok {
		t.Fatal("summarize failed")
	}
	if s.DeliveryBefore != 1.0 {
		t.Fatalf("before = %v", s.DeliveryBefore)
	}
	if s.DeliveryDuring != 0.55 {
		t.Fatalf("during = %v", s.DeliveryDuring)
	}
	if got := s.DeliveryAfter; got < 0.899 || got > 0.901 {
		t.Fatalf("after = %v", got)
	}
	// Recovery floor is 0.95: window [400,500) at 0.7 fails, [500,600)
	// onward holds, so reconvergence is 500-350.
	if s.ReconvergenceMS != 150 {
		t.Fatalf("reconvergence = %v, want 150", s.ReconvergenceMS)
	}
	if s.CostBefore != 1.0 || s.CostDuring != 3.0 {
		t.Fatalf("costs = %v / %v", s.CostBefore, s.CostDuring)
	}
}

func TestSummarizeNeverRecovers(t *testing.T) {
	tl := Timeline{Windows: []TransitionWindow{
		win(0, 100, 10, 10, 0, 0, 10),
		win(100, 200, 10, 4, 1, 3, 30),
		win(200, 300, 10, 5, 1, 3, 30),
	}}
	tl.AddMark(100, "data-shift")
	s, ok := tl.Summarize(0.05)
	if !ok {
		t.Fatal("summarize failed")
	}
	if s.ReconvergenceMS != -1 {
		t.Fatalf("reconvergence = %v, want -1", s.ReconvergenceMS)
	}
}

func TestSummarizeNeedsMarksAndBaseline(t *testing.T) {
	var tl Timeline
	if _, ok := tl.Summarize(0.05); ok {
		t.Fatal("empty timeline must not summarize")
	}
	tl.Windows = []TransitionWindow{win(0, 100, 10, 10, 0, 0, 10)}
	if _, ok := tl.Summarize(0.05); ok {
		t.Fatal("no marks: must not summarize")
	}
	tl.AddMark(50, "x") // mark before any complete window
	if _, ok := tl.Summarize(0.05); ok {
		t.Fatal("no pre-mark window: must not summarize")
	}
}

func TestMeanOverAndTailMean(t *testing.T) {
	tl := Timeline{Windows: []TransitionWindow{
		win(0, 100, 10, 10, 0, 0, 10),
		win(100, 200, 10, 10, 0, 0, 20),
		win(200, 300, 10, 10, 0, 0, 30),
	}}
	cost := TransitionWindow.CostPerReading
	if got := tl.MeanOver(0, 200, cost); got != 1.5 {
		t.Fatalf("mean [0,200) = %v", got)
	}
	if got := tl.MeanOver(500, 600, cost); got != 0 {
		t.Fatalf("empty span mean = %v", got)
	}
	if got := tl.TailMean(2, cost); got != 2.5 {
		t.Fatalf("tail mean = %v", got)
	}
	if got := tl.TailMean(10, cost); got != 2.0 {
		t.Fatalf("oversized tail mean = %v", got)
	}
}
