package main

import (
	"scoop/internal/exp"
	"scoop/internal/metrics"
	"scoop/internal/prof"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	// Exact marks a simulated-time statistic: for one seed it must read the
	// same on every run and every commit that does not change the model.
	Exact bool
}

// endToEnd are the metrics a user of the simulator sees. The inputs change
// with the seed, and with them the work per virtual second, so the bounds
// are wide enough to hold across seeds; for one seed an Exact metric
// repeats to the last digit and -compare holds it to that.
var endToEnd = []metricDef{
	{Name: "sim_rate", Unit: "vs/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "allocs_per_vs", Unit: "mallocs/vs", Better: "lower", Bound: 0.25},
	{Name: "model_msgs_per_reading", Unit: "msgs", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer are the metrics of single layers, printed by the traced run.
// A metric that does not apply to a workload reads 0 there. Sources: P =
// exp.Config.Profile snapshot, S = the bench's App shim, I = isolated
// call, C = counters in the results.
var perLayer = []metricDef{
	// netsim
	{Name: "netsim.engine_ns_per_vs", Unit: "ns/vs", Better: "lower"},          // S
	{Name: "netsim.engine_share", Unit: "ratio", Better: "lower"},              // S
	{Name: "netsim.events_per_vs", Unit: "1/vs", Better: "lower"},              // P
	{Name: "netsim.heap_depth_p99", Unit: "count", Better: "lower"},            // P
	{Name: "netsim.heap_share", Unit: "ratio", Better: "lower"},                // P
	{Name: "netsim.radio_share", Unit: "ratio", Better: "lower"},               // P
	{Name: "netsim.mac_timer_share", Unit: "ratio", Better: "lower"},           // P
	{Name: "netsim.tx_per_vs", Unit: "1/vs", Better: "lower"},                  // C
	{Name: "netsim.snoop_calls_per_vs", Unit: "1/vs", Better: "lower"},         // S
	{Name: "netsim.recv_calls_per_vs", Unit: "1/vs", Better: "lower"},          // S
	{Name: "netsim.timer_calls_per_vs", Unit: "1/vs", Better: "lower"},         // S
	{Name: "netsim.slice_ms_p50", Unit: "ms", Better: "lower"},                 // S
	{Name: "netsim.slice_ms_p95", Unit: "ms", Better: "lower"},                 // S
	{Name: "netsim.flood_n1000_ms_per_vmin", Unit: "ms/vmin", Better: "lower"}, // I
	{Name: "netsim.flood_n1000_allocs", Unit: "count", Better: "lower"},        // I
	{Name: "netsim.topology_n1000_ms", Unit: "ms", Better: "lower"},            // I
	{Name: "netsim.k2_speedup", Unit: "ratio", Better: "higher"},               // scale1000 only: serial wall / Regions=2 wall
	// core
	{Name: "core.callback_share", Unit: "ratio", Better: "lower"},     // S
	{Name: "core.stats_ns_per_vs", Unit: "ns/vs", Better: "lower"},    // S
	{Name: "core.stats_calls_per_vs", Unit: "1/vs", Better: "lower"},  // S
	{Name: "core.route_ns_per_vs", Unit: "ns/vs", Better: "lower"},    // S
	{Name: "core.route_calls_per_vs", Unit: "1/vs", Better: "lower"},  // S
	{Name: "core.query_ns_per_vs", Unit: "ns/vs", Better: "lower"},    // S
	{Name: "core.query_calls_per_vs", Unit: "1/vs", Better: "lower"},  // S
	{Name: "core.base_recv_ns_per_call", Unit: "ns", Better: "lower"}, // S
	{Name: "core.node_init_us", Unit: "us", Better: "lower"},          // S
	{Name: "core.reply_dup_ns", Unit: "ns", Better: "lower"},          // I
	{Name: "core.stored_ratio", Unit: "ratio", Better: "higher"},      // C
	{Name: "core.owner_hit_ratio", Unit: "ratio", Better: "higher"},   // C
	{Name: "core.retries_per_query", Unit: "ratio", Better: "lower"},  // C
	// trickle
	{Name: "trickle.query_ns_per_vs", Unit: "ns/vs", Better: "lower"},   // S
	{Name: "trickle.query_ns_per_call", Unit: "ns", Better: "lower"},    // S
	{Name: "trickle.query_calls_per_vs", Unit: "1/vs", Better: "lower"}, // S
	{Name: "trickle.map_ns_per_vs", Unit: "ns/vs", Better: "lower"},     // S
	{Name: "trickle.map_calls_per_vs", Unit: "1/vs", Better: "lower"},   // S
	// routing
	{Name: "routing.tree_ns_per_vs", Unit: "ns/vs", Better: "lower"},  // S
	{Name: "routing.snoop_ns_per_vs", Unit: "ns/vs", Better: "lower"}, // S
	{Name: "routing.snoop_ns_per_call", Unit: "ns", Better: "lower"},  // S
	// index
	{Name: "index.remap_ns_per_vs", Unit: "ns/vs", Better: "lower"},      // S
	{Name: "index.remap_ms_max", Unit: "ms", Better: "lower"},            // S
	{Name: "index.remaps", Unit: "count", Better: "lower"},               // S
	{Name: "index.reindex_share", Unit: "ratio", Better: "lower"},        // P
	{Name: "index.rebuild_n1000_ms", Unit: "ms", Better: "lower"},        // I
	{Name: "index.rebuild_n1000_allocs", Unit: "count", Better: "lower"}, // I
	// query
	{Name: "query.issue_query_us_p50", Unit: "us", Better: "lower"},     // S
	{Name: "query.issue_agg_us_p50", Unit: "us", Better: "lower"},       // S
	{Name: "query.planner_share", Unit: "ratio", Better: "lower"},       // P
	{Name: "query.agg_answered_ratio", Unit: "ratio", Better: "higher"}, // C
	{Name: "query.agg_mean_err", Unit: "ratio", Better: "lower"},        // C
	// trace, prof
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"}, // trace-on250 only
	{Name: "trace.bytes_per_vs", Unit: "B/vs", Better: "lower"},    // trace-on250 only
	{Name: "trace.events_per_vs", Unit: "1/vs", Better: "lower"},   // trace-on250 only
	{Name: "trace.emit_ring_ns", Unit: "ns", Better: "lower"},      // I
	{Name: "prof.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "prof.coverage", Unit: "ratio", Better: "higher"}, // P
	// exp, sweep
	{Name: "exp.harness_share", Unit: "ratio", Better: "lower"},        // P
	{Name: "sweep.cells_per_s", Unit: "1/s", Better: "higher"},         // fig3-sweep only
	{Name: "sweep.worker_busy_share", Unit: "ratio", Better: "higher"}, // fig3-sweep only
	{Name: "sweep.cell_ms_p50", Unit: "ms", Better: "lower"},           // fig3-sweep only
	{Name: "sweep.cell_ms_p90", Unit: "ms", Better: "lower"},           // fig3-sweep only
	// model, runtime, the bench itself
	{Name: "model.data_stored", Unit: "ratio", Better: "higher"},     // C
	{Name: "model.query_return", Unit: "ratio", Better: "higher"},    // C
	{Name: "model.base_over_scoop", Unit: "ratio", Better: "higher"}, // fig3-sweep only
	{Name: "rt.alloc_mb_per_vs", Unit: "MB/vs", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.shim_overhead_ratio", Unit: "ratio", Better: "lower"}, // S
	{Name: "bench.driver_matches_exp", Unit: "count", Better: "higher"}, // S: 1 when the driver's digest equals exp.Run's
}

// layers is the traced run's output: every perLayer name, 0 by default.
type layers map[string]float64

func newLayers() layers {
	l := make(layers, len(perLayer))
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	return l
}

// fromProfile fills the P metrics from a profiled trial.
func (l layers) fromProfile(s *prof.Snapshot, virtualS float64) {
	if s == nil {
		return
	}
	share := func(p prof.Phase) float64 { return ratio(float64(s.Wall[p]), float64(s.AttributedNs())) }
	l["netsim.events_per_vs"] = ratio(float64(s.Events), virtualS)
	l["netsim.heap_depth_p99"] = float64(s.Depth.Quantile(0.99))
	l["netsim.heap_share"] = share(prof.PhaseHeap)
	l["netsim.radio_share"] = share(prof.PhaseRadio)
	l["netsim.mac_timer_share"] = share(prof.PhaseMAC)
	l["index.reindex_share"] = share(prof.PhaseReindex)
	l["query.planner_share"] = share(prof.PhasePlanner)
	l["exp.harness_share"] = share(prof.PhaseHarness)
	l["prof.coverage"] = s.Coverage()
}

// fromResult fills the C metrics from one experiment result.
func (l layers) fromResult(res exp.Result, virtualS float64) {
	st := res.Stats
	b := res.Breakdown
	l["netsim.tx_per_vs"] = ratio((b.Total()+b.Beacon)*float64(len(res.PerTrial)), virtualS)
	l["core.stored_ratio"] = st.DataSuccessRate()
	l["core.owner_hit_ratio"] = st.OwnerHitRate()
	l["core.retries_per_query"] = ratio(float64(st.QueryRetries), float64(st.QueriesIssued+st.AggQueriesIssued))
	l["query.agg_answered_ratio"] = ratio(float64(res.Agg.Answered), float64(res.Agg.Issued))
	l["query.agg_mean_err"] = res.Agg.MeanErr()
}

// fromProbe fills the S metrics from a shimmed driver run.
func (l layers) fromProbe(p *probe, virtualS float64) {
	perVS := func(v int64) float64 { return ratio(float64(v), virtualS) }
	group := func(as ...acc) acc {
		var g acc
		for _, a := range as {
			g = g.plus(a)
		}
		return g
	}
	recv := func(c metrics.Class) acc { return p.nodeRecv[c].plus(p.baseRecv[c]) }
	var allRecv, baseRecv, allTimer acc
	for c := 0; c < numClasses; c++ {
		allRecv = allRecv.plus(recv(metrics.Class(c)))
		baseRecv = baseRecv.plus(p.baseRecv[c])
	}
	for _, t := range p.timer {
		allTimer = allTimer.plus(t)
	}

	l["netsim.engine_ns_per_vs"] = perVS(p.engineNs())
	l["netsim.engine_share"] = ratio(float64(p.engineNs()), float64(p.loopNs))
	l["netsim.snoop_calls_per_vs"] = perVS(p.snoop.n)
	l["netsim.recv_calls_per_vs"] = perVS(allRecv.n)
	l["netsim.timer_calls_per_vs"] = perVS(allTimer.n)
	l["netsim.slice_ms_p50"] = percentile(p.sliceMS, 50)
	l["netsim.slice_ms_p95"] = percentile(p.sliceMS, 95)

	l["core.callback_share"] = ratio(float64(p.inLoop), float64(p.loopNs))
	stats := group(p.timer[timerSummary], recv(metrics.Summary))
	route := group(p.timer[timerSample], p.timer[timerBatch], recv(metrics.Data))
	qry := group(recv(metrics.Query), recv(metrics.Reply), recv(metrics.AggReply),
		p.timer[timerReply], p.timer[timerAggFlush], p.timer[timerRel])
	l["core.stats_ns_per_vs"], l["core.stats_calls_per_vs"] = perVS(stats.sum), perVS(stats.n)
	l["core.route_ns_per_vs"], l["core.route_calls_per_vs"] = perVS(route.sum), perVS(route.n)
	l["core.query_ns_per_vs"], l["core.query_calls_per_vs"] = perVS(qry.sum), perVS(qry.n)
	l["core.base_recv_ns_per_call"] = ratio(float64(baseRecv.sum), float64(baseRecv.n))
	l["core.node_init_us"] = ratio(float64(p.init.sum), float64(p.init.n)) / 1e3

	tq := p.timer[timerQuery]
	l["trickle.query_ns_per_vs"] = perVS(tq.sum)
	l["trickle.query_ns_per_call"] = ratio(float64(tq.sum), float64(tq.n))
	l["trickle.query_calls_per_vs"] = perVS(tq.n)
	tm := group(p.timer[timerMapping], recv(metrics.Mapping))
	l["trickle.map_ns_per_vs"], l["trickle.map_calls_per_vs"] = perVS(tm.sum), perVS(tm.n)

	tree := group(p.timer[timerTree], recv(metrics.Beacon))
	l["routing.tree_ns_per_vs"] = perVS(tree.sum)
	l["routing.snoop_ns_per_vs"] = perVS(p.snoop.sum)
	l["routing.snoop_ns_per_call"] = ratio(float64(p.snoop.sum), float64(p.snoop.n))

	remap := p.timer[timerRemap]
	l["index.remap_ns_per_vs"] = perVS(remap.sum)
	l["index.remap_ms_max"] = float64(remap.max) / 1e6
	l["index.remaps"] = float64(remap.n)

	l["query.issue_query_us_p50"] = percentile(p.issueQ, 50)
	l["query.issue_agg_us_p50"] = percentile(p.issueAgg, 50)
}

// layerTimes lists the per-layer wall times of a probe, for the "largest
// per-layer time" line of the report.
func layerTimes(l layers) map[string]float64 {
	out := make(map[string]float64)
	for _, k := range []string{"netsim.engine_ns_per_vs", "core.stats_ns_per_vs", "core.route_ns_per_vs",
		"core.query_ns_per_vs", "trickle.query_ns_per_vs", "trickle.map_ns_per_vs",
		"routing.tree_ns_per_vs", "routing.snoop_ns_per_vs", "index.remap_ns_per_vs"} {
		out[k] = l[k]
	}
	return out
}
