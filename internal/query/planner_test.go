package query

import "testing"

func baseInput() PlanInput {
	return PlanInput{
		Op:                OpAvg,
		N:                 32,
		Targets:           4,
		Covered:           true,
		AvgDepth:          3,
		ExpTuples:         400,
		MaxTuplesPerReply: 20,
		ErrBudget:         0,
	}
}

func TestPlannerPrefersSummaryWithinBudget(t *testing.T) {
	in := baseInput()
	in.Est = Estimate{Valid: true, Value: 42, ErrBound: 0.08}
	in.ErrBudget = 0.15
	d := Choose(in)
	if d.Plan != PlanSummary {
		t.Fatalf("plan = %v, want summary", d.Plan)
	}
	if d.EstBytes != 0 || d.EstError != 0.08 {
		t.Fatalf("summary decision %+v", d)
	}
}

func TestPlannerRejectsSummaryOverBudget(t *testing.T) {
	in := baseInput()
	in.Est = Estimate{Valid: true, Value: 42, ErrBound: 0.3}
	in.ErrBudget = 0.1
	d := Choose(in)
	if d.Plan == PlanSummary {
		t.Fatal("summary plan chosen above error budget")
	}
}

func TestPlannerPicksAggOverTupleForLargeResults(t *testing.T) {
	in := baseInput() // 400 expected tuples across 4 targets
	d := Choose(in)
	if d.Plan != PlanAgg {
		t.Fatalf("plan = %v, want agg", d.Plan)
	}
	if d.EstError != 0 {
		t.Fatalf("agg plan carries error %v", d.EstError)
	}
}

func TestPlannerPicksTupleForTinyResults(t *testing.T) {
	in := baseInput()
	in.ExpTuples = 1
	in.Targets = 1
	in.AvgDepth = 1
	d := Choose(in)
	if d.Plan != PlanTuple {
		t.Fatalf("plan = %v, want tuple (1 expected tuple)", d.Plan)
	}
}

func TestPlannerSelectAlwaysTuples(t *testing.T) {
	in := baseInput()
	in.Op = OpSelect
	in.Est = Estimate{Valid: true, ErrBound: 0}
	in.ErrBudget = 1
	if d := Choose(in); d.Plan != PlanTuple {
		t.Fatalf("SELECT plan = %v", d.Plan)
	}
}

func TestPlannerFloodsUncoveredWindows(t *testing.T) {
	in := baseInput()
	in.Covered = false
	in.Targets = in.N - 1
	d := Choose(in)
	if d.Plan != PlanFlood {
		t.Fatalf("plan = %v, want flood", d.Plan)
	}
}

func TestPlannerQuantilePlans(t *testing.T) {
	in := baseInput()
	in.Op = OpQuantile
	in.Est = Estimate{Valid: true, Value: 50, ErrBound: 0.1}
	in.ErrBudget = 0.2
	if d := Choose(in); d.Plan != PlanSummary {
		t.Fatalf("quantile within budget: plan = %v", d.Plan)
	}
	// No usable estimate: ship tuples and compute the quantile at the
	// base — never an in-network plan, whose partials cannot carry a
	// quantile and so could never answer.
	in.Est = Estimate{}
	if d := Choose(in); d.Plan != PlanTuple {
		t.Fatalf("quantile without estimate: plan = %v", d.Plan)
	}
	in.Force = PlanAgg
	if d := Choose(in); d.Plan == PlanAgg || d.Plan == PlanFlood {
		t.Fatalf("forced in-network quantile chose unanswerable plan %v", d.Plan)
	}
}

func TestPlannerForceOverrides(t *testing.T) {
	in := baseInput()
	in.Force = PlanTuple
	if d := Choose(in); d.Plan != PlanTuple {
		t.Fatalf("forced tuple, got %v", d.Plan)
	}
	in.Force = PlanFlood
	if d := Choose(in); d.Plan != PlanFlood {
		t.Fatalf("forced flood, got %v", d.Plan)
	}
	// Forcing an ineligible summary plan falls back to the auto choice.
	in.Force = PlanSummary
	if d := Choose(in); d.Plan == PlanSummary {
		t.Fatal("forced summary without a valid estimate")
	}
	// Forcing the indexed in-network plan over an uncovered window
	// floods (its in-network sibling), never tuple-return.
	in.Force = PlanAgg
	in.Covered = false
	if d := Choose(in); d.Plan != PlanFlood {
		t.Fatalf("forced agg on uncovered window chose %v, want flood", d.Plan)
	}
}

func TestPlanStrings(t *testing.T) {
	want := map[Plan]string{PlanAuto: "auto", PlanSummary: "summary",
		PlanAgg: "agg", PlanTuple: "tuple", PlanFlood: "flood"}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}
