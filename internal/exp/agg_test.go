package exp

import (
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/query"
)

// quickAgg returns a shortened all-aggregate configuration.
func quickAgg() Config {
	cfg := Default()
	cfg.N = 16
	cfg.AggRatio = 1
	Quick.apply(&cfg)
	if testing.Short() {
		cfg.Duration = 12 * netsim.Minute
		cfg.Warmup = 4 * netsim.Minute
	}
	return cfg
}

// End-to-end: an all-aggregate workload runs through the planner,
// answers arrive, and answer errors stay moderate.
func TestAggWorkloadEndToEnd(t *testing.T) {
	res, err := Run(quickAgg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Issued == 0 {
		t.Fatal("no aggregate queries issued")
	}
	if res.Agg.Answered < res.Agg.Issued/2 {
		t.Fatalf("only %d of %d aggregates answered", res.Agg.Answered, res.Agg.Issued)
	}
	if res.Stats.AggQueriesIssued == 0 {
		t.Fatal("core stats saw no aggregate queries")
	}
	// The auto planner must exercise more than one physical plan over
	// a 1-5%-width random-range workload (narrow ranges tuple, wider
	// or uncovered ones aggregate/flood/summary).
	plans := 0
	for _, n := range []int64{res.Stats.PlanSummaryChosen, res.Stats.PlanAggChosen,
		res.Stats.PlanTupleChosen, res.Stats.PlanFloodChosen} {
		if n > 0 {
			plans++
		}
	}
	if plans < 2 {
		t.Fatalf("planner used %d plan kinds: %+v", plans, res.Stats)
	}
	if res.Agg.MeanErr() > 1.0 {
		t.Fatalf("mean answer error %.2f implausibly large", res.Agg.MeanErr())
	}
}

// The exactness trade between the forced plans on identical seeds:
// in-network combining answers wide aggregates exactly, tuple return
// accumulates truncation/loss error, and combining must not pay more
// than a modest byte premium for it under the lossy radio (the big
// byte wins live in the long-window few-owner regime, pinned by
// core's TestAggAvgInNetworkBeatsTupleBytes).
func TestAggPlanExactnessTrade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	run := func(force query.Plan) Result {
		cfg := quickAgg()
		cfg.QueryWidth = 0.5 // wide aggregates: large result sets
		cfg.AggOps = []query.Op{query.OpCount, query.OpSum, query.OpAvg,
			query.OpMin, query.OpMax}
		cfg.AggForce = force
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	agg := run(query.PlanAgg)
	tup := run(query.PlanTuple)
	if agg.Agg.Answered == 0 || tup.Agg.Answered == 0 {
		t.Fatalf("unanswered: agg=%d tuple=%d", agg.Agg.Answered, tup.Agg.Answered)
	}
	if agg.Agg.ErrSum > tup.Agg.ErrSum {
		t.Fatalf("in-network answers less exact than tuple return: %v vs %v",
			agg.Agg.ErrSum, tup.Agg.ErrSum)
	}
	aggReply := agg.ReplyBytes + agg.AggReplyBytes
	tupReply := tup.ReplyBytes + tup.AggReplyBytes
	if aggReply > 2*tupReply {
		t.Fatalf("combining paid >2x reply bytes: agg %.0f vs tuple %.0f", aggReply, tupReply)
	}
}

// The BASE policy keeps its zero-cost store answers even under an
// aggregate mix (aggregates are meaningless there), and node-list
// workloads ignore the ratio.
func TestAggRatioIgnoredWhereMeaningless(t *testing.T) {
	cfg := quickAgg()
	cfg.Policy = policy.Base
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Issued != 0 || res.Breakdown.Query != 0 {
		t.Fatalf("BASE policy issued aggregates: %+v", res.Agg)
	}
	cfg = quickAgg()
	cfg.NodePct = 0.2
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Issued != 0 {
		t.Fatal("node-list workload issued aggregates")
	}
}

func TestValidateRejectsBadAggConfig(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.AggRatio = -0.1 },
		func(c *Config) { c.AggRatio = 1.5 },
		func(c *Config) { c.AggErrBudget = -1 },
		func(c *Config) { c.AggForce = query.PlanFlood + 1 },
	} {
		cfg := Default()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config accepted: %+v", cfg)
		}
	}
}
