// Package core implements the Scoop protocol itself: the per-node
// state machine (sampling, summary reporting, the six data-routing
// rules, batching, storage-index assembly, query answering) and the
// basestation (statistics collection, cost-based index construction,
// Trickle dissemination, query dissemination and reply collection).
// It composes the substrates: netsim for the radio, routing for the
// tree, trickle for dissemination, histogram and index for state;
// storage.go holds a node's Flash buffers.
package core

import (
	"scoop/internal/index"
	"scoop/internal/netsim"
	"scoop/internal/prof"
	"scoop/internal/query"
	"scoop/internal/trace"
	"scoop/internal/trickle"
)

// Timer identifiers shared by node and basestation applications.
const (
	timerSample   = 1  // node: take a sensor sample
	timerSummary  = 2  // node: send a summary message
	timerTree     = 3  // both: routing-tree maintenance/beacons
	timerMapping  = 4  // both: mapping-chunk Trickle
	timerQuery    = 5  // both: query Trickle
	timerBatch    = 6  // node: flush a stale data batch
	timerRemap    = 7  // base: recompute the storage index
	timerReply    = 8  // node: send jittered query replies
	timerAggFlush = 9  // node: flush combined partial aggregates upward
	timerRel      = 10 // base: earliest pending-query deadline (reliability layer)
)

// Config carries the protocol parameters a caller varies. Defaults
// (DefaultConfig) are the paper's experimental settings (§6 table and
// in-text values); the parameters the paper fixes are the constants
// below.
type Config struct {
	// SampleInterval is the sensor sampling period (paper: 15 s).
	SampleInterval netsim.Time
	// SummaryInterval is the summary-message period (paper: 110 s).
	SummaryInterval netsim.Time
	// RemapInterval is the storage-index recomputation period
	// (paper: 240 s).
	RemapInterval netsim.Time

	// BatchSize is the max readings per data message (paper: 5).
	BatchSize int

	// StatStaleAfter, when > 0, makes index construction ignore node
	// summaries older than this: a dead or partitioned node stops
	// reporting, its statistics age out, and the next epoch's index
	// stops assigning it ownership. 0 keeps every last-known summary
	// forever (the paper's static-membership behaviour); churn
	// experiments set it to a few summary intervals.
	StatStaleAfter netsim.Time

	// AggForcePlan pins the aggregate planner's physical plan
	// (ablation figures and tests); query.PlanAuto lets it choose.
	AggForcePlan query.Plan

	// DomainMin/DomainMax bound the attribute value domain the
	// basestation indexes (from the workload source).
	DomainMin, DomainMax int

	// QueryDeadline, when > 0, enables the basestation's query
	// reliability layer (DESIGN.md §19): every issued tuple or
	// aggregate query gets a reply deadline; owners still silent when
	// it expires are re-asked with a narrowed bitmap under exponential
	// backoff, and when the retry budget runs out the query settles to
	// an explicit terminal verdict (complete/partial/degraded/failed).
	// 0 — the default and what every pre-§19 baseline runs — disables
	// the layer entirely: no deadlines, no retries, no verdict state,
	// and zero additional allocations on the query path.
	QueryDeadline netsim.Time
	// QueryRetryMax caps re-issues per query (attempt k waits
	// QueryDeadline << k). Only read when QueryDeadline > 0.
	QueryRetryMax int

	// Preload, when non-nil, installs a fixed storage index on every
	// node and the basestation at time zero and makes the run a static
	// comparator: no summaries, no index recomputation, no index
	// dissemination. The comparator policies are exactly this: LOCAL
	// preloads a store-local index, BASE preloads an all-values→base
	// index, and the simulated HASH extension preloads a static hash
	// index.
	Preload *index.Index
	// RemapLimit, when > 0, stops scheduling index recomputations
	// after that many have run. RemapLimit 1 builds the first index
	// from post-warm-up statistics and then freezes it — the ablation
	// that shows what the adaptive loop buys under drift and churn.
	// 0 means unlimited.
	RemapLimit int

	// Trace, when non-nil, receives flight-recorder events from every
	// protocol decision point: reading lifecycle, query planning and
	// answering, aggregate combining, chunk dissemination and index
	// adoption (DESIGN.md §16). One recorder per simulation run; nil
	// disables tracing at the cost of one branch per site.
	Trace *trace.Recorder

	// Prof, when non-nil, attributes the wall time of the protocol
	// hot paths — packet handling, reindexing, planning, aggregate
	// combining, chunk dissemination — to the profiler's phase
	// taxonomy (DESIGN.md §17). Wall time never feeds back into
	// behaviour; nil disables profiling at the cost of one branch per
	// instrumented span.
	Prof *prof.Profiler
}

// DefaultConfig returns the paper's experimental parameters for a
// value domain of [lo,hi].
func DefaultConfig(lo, hi int) Config {
	return Config{
		SampleInterval:  15 * netsim.Second,
		SummaryInterval: 110 * netsim.Second,
		RemapInterval:   240 * netsim.Second,

		BatchSize: 5,

		DomainMin: lo,
		DomainMax: hi,
	}
}

// The protocol parameters every run shares: the paper's values (§6
// table and in-text) where it gives one, this reproduction's own for
// the rest. No experiment varies them.
const (
	// recentBufSize is the recent-readings ring a summary describes
	// (paper §6: 30 readings).
	recentBufSize = 30
	// batchTimeout flushes a pending batch even without an owner
	// change, so readings are not held arbitrarily long.
	batchTimeout = 120 * netsim.Second
	// dataBufCap bounds each node's Flash data buffer, in readings
	// (paper §5.5: owners scan their Flash buffer to answer queries).
	dataBufCap = 4096
	// nBins is the summary histogram resolution (paper §6: 10 bins).
	nBins = 10
	// neighborReport is how many best neighbors a summary carries
	// (paper §6: 12).
	neighborReport = 12
	// maxHops is the TTL guarding relayed data, summaries, replies and
	// partials against transient routing loops during parent switches.
	maxHops = 32
	// chunkEntries is the number of index entries per mapping message
	// (paper §5.3: an index travels as a handful of small chunks).
	chunkEntries = 6
	// similaritySuppress suppresses dissemination of a new index whose
	// per-value agreement with the current one is at least this
	// fraction (paper §5.3: suppress "if it is very similar").
	similaritySuppress = 0.90
	// replyMaxReadings caps the readings one reply message carries, so
	// a reply fits one mote packet.
	replyMaxReadings = 20
	// queryStatsWindow is how many recent queries feed the query
	// profile index construction uses (paper §5.5).
	queryStatsWindow = 100
	// aggCombineWindow spreads the answer wave of an aggregate query:
	// a targeted node at depth h computes its local partial after
	// roughly aggCombineWindow/(1+h), so deep nodes answer first and
	// their parents fold the partials in before forwarding.
	aggCombineWindow = 4 * netsim.Second
	// aggFlushDelay is how long a node holds a freshly merged partial
	// for further combining before flushing it toward the base.
	aggFlushDelay = 700 * netsim.Millisecond
)

// mappingTrickle disseminates index chunks (paper §5.3): fast initial
// spread, intervals doubling to 16 s, retired after six.
var mappingTrickle = trickle.Config{
	TauLow:    500 * netsim.Millisecond,
	TauHigh:   16 * netsim.Second,
	K:         1,
	MaxRounds: 6,
}

// queryTrickle disseminates queries (paper §5.5's selective Trickle):
// a query matters for seconds, so its intervals stop at 2 s and it
// retires after four.
var queryTrickle = trickle.Config{
	TauLow:    200 * netsim.Millisecond,
	TauHigh:   2 * netsim.Second,
	K:         1,
	MaxRounds: 4,
}

// RunStats aggregates end-to-end delivery outcomes across a run, the
// numbers behind the paper's "93% of data messages stored" and "78% of
// query results retrieved" and the 85%-found-owner routing result.
// One RunStats is shared by all nodes of a run; all counters are plain
// int64 adds, so an experiment's trials merge by field-wise sum (Add).
type RunStats struct {
	// seen deduplicates storage events per reading, so the success rate
	// is not inflated by at-least-once retransmission duplicates (an ack
	// loss makes the sender retry a reading the receiver already
	// stored). Sample times per producer are almost always observed in
	// increasing order, so the seenTable's max-key fast path makes this
	// one row lookup per store event, no scan (DESIGN.md §12). Add does
	// not merge it: it belongs to the run that marks readings.
	seen seenTable

	Produced      int64 // readings sampled
	StoredLocal   int64 // readings stored by their producer
	StoredAtOwner int64 // readings stored at the correct owner
	StoredAtBase  int64 // readings that fell back to the base (owner not found)
	LostData      int64 // sender-perceived losses (ack never seen)

	// StoredUnique counts distinct readings stored at least once.
	StoredUnique      int64
	QueriesIssued     int64
	RepliesExpected   int64 // targeted nodes across all queries
	QueriesHeard      int64 // query packets first heard by a targeted node
	RepliesSent       int64 // replies launched by targeted nodes
	RepliesForwarded  int64 // reply hop-forwards at intermediate nodes
	RepliesReceived   int64
	TuplesReturned    int64 // matches the answering nodes reported, summed (a reading two nodes store counts twice)
	SummariesSent     int64
	SummariesReceived int64 // summaries that reached the base
	IndexesBuilt      int64
	IndexesSuppressed int64
	SummaryAnswered   int64 // queries answered from summaries alone

	// Reindex cost probe (index.BuildStats, summed across rebuilds):
	// how much work the basestation's index-construction pipeline
	// actually did. ReindexWallNanos is wall-clock (machine-dependent,
	// operator visibility only — it must never enter a committed
	// artifact); the other counters are deterministic.
	ReindexValues     int64 // value-domain entries across all rebuilds
	ReindexRecomputed int64 // values whose best-owner search re-ran
	ReindexSPTSources int64 // Dijkstra sources relaxed (0 when links were stable)
	ReindexFull       int64 // rebuilds that ran without usable incremental state
	ReindexWallNanos  int64 // wall-clock spent building indexes

	// Aggregate query engine counters.
	AggQueriesIssued    int64 // aggregate queries issued at the base
	AggQueriesHeard     int64 // agg query packets first heard by a targeted node
	AggRepliesSent      int64 // partial-aggregate flushes launched by nodes
	AggPartialsReceived int64 // partial-aggregate messages reaching the base
	AggCombined         int64 // descendant partials merged at intermediate nodes
	AggContributors     int64 // distinct nodes folded into answers at the base
	AggAnswered         int64 // agg queries with at least one partial back
	AggFirstAnswerMS    int64 // summed time-to-first-partial, virtual ms
	PlanSummaryChosen   int64 // per-plan decision counts
	PlanAggChosen       int64
	PlanTupleChosen     int64
	PlanFloodChosen     int64

	// Query reliability layer counters (DESIGN.md §19). All zero when
	// Config.QueryDeadline is 0.
	QueryRetries         int64 // deadline-driven re-issues (tuple + agg)
	QueryVerdictComplete int64 // queries settled with every owner heard
	QueryVerdictPartial  int64 // settled with some replies but no bound
	QueryVerdictDegraded int64 // settled from summaries with an error bound
	QueryVerdictFailed   int64 // settled with nothing to answer from
	DegradedAnswers      int64 // answers served via summary degradation
}

// Add folds src's counters into s field by field — how an
// experiment's trials merge. TestRunStatsAddCoversEveryCounter
// fails when a new counter is missing here.
func (s *RunStats) Add(src *RunStats) {
	s.Produced += src.Produced
	s.StoredLocal += src.StoredLocal
	s.StoredAtOwner += src.StoredAtOwner
	s.StoredAtBase += src.StoredAtBase
	s.LostData += src.LostData
	s.StoredUnique += src.StoredUnique
	s.QueriesIssued += src.QueriesIssued
	s.RepliesExpected += src.RepliesExpected
	s.QueriesHeard += src.QueriesHeard
	s.RepliesSent += src.RepliesSent
	s.RepliesForwarded += src.RepliesForwarded
	s.RepliesReceived += src.RepliesReceived
	s.TuplesReturned += src.TuplesReturned
	s.SummariesSent += src.SummariesSent
	s.SummariesReceived += src.SummariesReceived
	s.IndexesBuilt += src.IndexesBuilt
	s.IndexesSuppressed += src.IndexesSuppressed
	s.SummaryAnswered += src.SummaryAnswered
	s.ReindexValues += src.ReindexValues
	s.ReindexRecomputed += src.ReindexRecomputed
	s.ReindexSPTSources += src.ReindexSPTSources
	s.ReindexFull += src.ReindexFull
	s.ReindexWallNanos += src.ReindexWallNanos
	s.AggQueriesIssued += src.AggQueriesIssued
	s.AggQueriesHeard += src.AggQueriesHeard
	s.AggRepliesSent += src.AggRepliesSent
	s.AggPartialsReceived += src.AggPartialsReceived
	s.AggCombined += src.AggCombined
	s.AggContributors += src.AggContributors
	s.AggAnswered += src.AggAnswered
	s.AggFirstAnswerMS += src.AggFirstAnswerMS
	s.PlanSummaryChosen += src.PlanSummaryChosen
	s.PlanAggChosen += src.PlanAggChosen
	s.PlanTupleChosen += src.PlanTupleChosen
	s.PlanFloodChosen += src.PlanFloodChosen
	s.QueryRetries += src.QueryRetries
	s.QueryVerdictComplete += src.QueryVerdictComplete
	s.QueryVerdictPartial += src.QueryVerdictPartial
	s.QueryVerdictDegraded += src.QueryVerdictDegraded
	s.QueryVerdictFailed += src.QueryVerdictFailed
	s.DegradedAnswers += src.DegradedAnswers
}

// MarkStored records that the reading (producer, sampled at time t)
// was stored somewhere, and reports whether this is its first storage
// event. Nodes call it on every store; duplicates return false.
func (s *RunStats) MarkStored(producer uint16, t int64) bool {
	if s.seen.Seen(netsim.NodeID(producer), uint64(t)) {
		return false
	}
	s.StoredUnique++
	return true
}

// DataSuccessRate returns the fraction of produced readings stored at
// least once — the paper's "data messages are successfully stored
// about 93% of the time".
func (s *RunStats) DataSuccessRate() float64 {
	if s.Produced == 0 {
		return 0
	}
	return float64(s.StoredUnique) / float64(s.Produced)
}

// OwnerHitRate returns the fraction of routed (non-local) readings
// that reached their designated owner rather than falling back to the
// base — the paper's "about 85% of the time, the appropriate
// destination node is found".
func (s *RunStats) OwnerHitRate() float64 {
	routed := s.StoredAtOwner + s.StoredAtBase
	if routed == 0 {
		return 0
	}
	return float64(s.StoredAtOwner) / float64(routed)
}

// QuerySuccessRate returns the fraction of targeted nodes whose
// replies made it back to the basestation.
func (s *RunStats) QuerySuccessRate() float64 {
	if s.RepliesExpected == 0 {
		return 0
	}
	return float64(s.RepliesReceived) / float64(s.RepliesExpected)
}
