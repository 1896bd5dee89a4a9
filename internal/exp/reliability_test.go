package exp

import (
	"testing"

	"scoop/internal/netsim"
)

// completeness is the fraction of settled queries that produced a
// usable answer: fully collected (complete) or answered from retained
// summaries with an honest error bound (degraded). The invariant
// checker guarantees every journalled query settles exactly once, so
// the verdict counters sum to the number of issued queries.
func completeness(r Result) float64 {
	good := r.Stats.QueryVerdictComplete + r.Stats.QueryVerdictDegraded
	total := good + r.Stats.QueryVerdictPartial + r.Stats.QueryVerdictFailed
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// TestReliabilityAcceptance is the headline robustness claim of
// DESIGN.md §19: under 40% ambient link loss plus a regional blackout
// (a quarter of the run with a third of the network unreachable), the
// deadline-retry and summary-degradation machinery lifts query
// completeness to at least 0.95, at no more than 2x the query-class
// bytes of the fault-free run in the same lossy environment. A third
// run with the reliability layer disabled pins the counterfactual: the
// same faults without retries deliver barely two thirds of the
// expected replies.
func TestReliabilityAcceptance(t *testing.T) {
	base := Default()
	base.N = 20
	base.Duration = 30 * netsim.Minute
	base.Warmup = 2 * netsim.Minute
	base.Trials = 1
	base.Seed = 17
	base.AggRatio = 0.5
	base.LinkLoss = 0.4
	base.QueryDeadline = 8 * netsim.Second
	base.QueryRetryMax = 7

	faulted := base
	faulted.Faults = "blackout"

	rel, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if c := completeness(rel); c < 0.95 {
		t.Errorf("completeness %.3f under loss+blackout, want >= 0.95 "+
			"(complete=%d partial=%d degraded=%d failed=%d)",
			c, rel.Stats.QueryVerdictComplete, rel.Stats.QueryVerdictPartial,
			rel.Stats.QueryVerdictDegraded, rel.Stats.QueryVerdictFailed)
	}
	if rel.Stats.QueryRetries == 0 {
		t.Error("no retries fired under 40% loss plus blackout")
	}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Breakdown.Query <= 0 {
		t.Fatal("fault-free run sent no query bytes")
	}
	if ratio := rel.Breakdown.Query / clean.Breakdown.Query; ratio > 2 {
		t.Errorf("query-class bytes %.0f are %.2fx the fault-free %.0f, budget is 2x",
			rel.Breakdown.Query, ratio, clean.Breakdown.Query)
	}

	noRetry := faulted
	noRetry.QueryDeadline = 0
	noRetry.QueryRetryMax = 0
	off, err := Run(noRetry)
	if err != nil {
		t.Fatal(err)
	}
	lossy := float64(off.Stats.RepliesReceived) / float64(off.Stats.RepliesExpected)
	lifted := float64(rel.Stats.RepliesReceived) / float64(rel.Stats.RepliesExpected)
	if lifted <= lossy {
		t.Errorf("retries did not lift reply delivery: %.3f with reliability vs %.3f without",
			lifted, lossy)
	}
}
