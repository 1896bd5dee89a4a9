package core

import (
	"reflect"
	"testing"

	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/trace"
	"scoop/internal/workload"
)

// ownersConst builds a dense owner slice with a single owner.
func ownersConst(n int, o netsim.NodeID) []netsim.NodeID {
	out := make([]netsim.NodeID, n)
	for i := range out {
		out[i] = o
	}
	return out
}

// oneReading wraps a single reading for hand-crafted data messages.
func oneReading(v int, producer uint16, t netsim.Time) []Reading {
	return []Reading{{Producer: producer, Value: v, Time: int64(t)}}
}

// testNet wires a base plus nodes over a given topology with perfect
// deterministic control. sampler may be nil (nodes produce their ID).
type testNet struct {
	sim   *netsim.Simulator
	net   *netsim.Network
	ctr   *metrics.Counters
	base  *Base
	nodes []*Node // index 0 unused
	stats *RunStats
	cfg   Config
}

func idSampler(id netsim.NodeID, _ netsim.Time) int { return int(id) }

// chainTopo builds a perfect-link chain 0—1—2—…—(n-1).
func chainTopo(n int, q float64) *netsim.Topology {
	t := netsim.NewTopology(n)
	t.Pos = make([]netsim.Point, n)
	for i := range t.Pos {
		t.Pos[i] = netsim.Point{X: float64(i)}
	}
	for i := 0; i+1 < n; i++ {
		t.SetQuality(netsim.NodeID(i), netsim.NodeID(i+1), q)
		t.SetQuality(netsim.NodeID(i+1), netsim.NodeID(i), q)
	}
	return t
}

// meshTopo builds a full mesh with uniform quality.
func meshTopo(n int, q float64) *netsim.Topology {
	t := netsim.NewTopology(n)
	t.Pos = make([]netsim.Point, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t.SetQuality(netsim.NodeID(i), netsim.NodeID(j), q)
			}
		}
	}
	return t
}

func newTestNet(t *testing.T, topo *netsim.Topology, cfg Config, sample Sampler, seed int64) *testNet {
	t.Helper()
	if sample == nil {
		sample = idSampler
	}
	tn := &testNet{
		sim:   netsim.NewSimulator(seed),
		ctr:   metrics.NewCounters(),
		stats: &RunStats{},
		cfg:   cfg,
	}
	tn.net = netsim.NewNetwork(tn.sim, topo, tn.ctr, netsim.DefaultParams())
	tn.base = NewBase(cfg, tn.stats, 2*netsim.Minute)
	tn.net.Attach(0, tn.base)
	tn.nodes = make([]*Node, topo.N)
	for i := 1; i < topo.N; i++ {
		tn.nodes[i] = NewNode(cfg, tn.stats, sample, 2*netsim.Minute)
		tn.net.Attach(netsim.NodeID(i), tn.nodes[i])
	}
	tn.net.Start()
	return tn
}

func testConfig() Config {
	cfg := DefaultConfig(0, 20)
	// Faster cadence so tests converge quickly.
	cfg.SampleInterval = 5 * netsim.Second
	cfg.SummaryInterval = 30 * netsim.Second
	cfg.RemapInterval = 60 * netsim.Second
	return cfg
}

func TestSummariesReachBase(t *testing.T) {
	tn := newTestNet(t, chainTopo(4, 0.95), testConfig(), nil, 1)
	tn.sim.Run(6 * netsim.Minute)
	heard := 0
	for _, m := range tn.base.latest {
		if m != nil {
			heard++
		}
	}
	if heard < 3 {
		t.Fatalf("base has summaries from %d nodes, want 3", heard)
	}
	if tn.stats.SummariesReceived == 0 {
		t.Fatal("no summaries received")
	}
}

func TestIndexBuiltAndDisseminated(t *testing.T) {
	tn := newTestNet(t, chainTopo(4, 0.95), testConfig(), nil, 2)
	tn.sim.Run(8 * netsim.Minute)
	if tn.base.CurrentIndex() == nil {
		t.Fatal("base never built an index")
	}
	for i := 1; i < 4; i++ {
		ix := tn.nodes[i].cur
		if ix == nil {
			t.Fatalf("node %d never assembled an index", i)
		}
		if ix.ID == 0 {
			t.Fatalf("node %d has zero index ID", i)
		}
	}
}

func TestUniqueWorkloadMapsProducersToThemselves(t *testing.T) {
	// With each node producing its own ID and no queries, the index
	// must assign node i the value i (paper property P3).
	tn := newTestNet(t, meshTopo(5, 0.9), testConfig(), nil, 3)
	tn.sim.Run(10 * netsim.Minute)
	ix := tn.base.CurrentIndex()
	if ix == nil {
		t.Fatal("no index")
	}
	for i := netsim.NodeID(1); i < 5; i++ {
		if o, ok := ix.Owner(int(i)); !ok || o != i {
			t.Fatalf("value %d owned by %d (ok=%v), want producer", i, o, ok)
		}
	}
	// Consequently, nearly all readings store locally.
	if tn.stats.StoredLocal < tn.stats.Produced/2 {
		t.Fatalf("local stores %d of %d produced; locality not exploited",
			tn.stats.StoredLocal, tn.stats.Produced)
	}
}

func TestDataRoutedToOwner(t *testing.T) {
	// All nodes produce value 7 whose owner will be the dominant
	// producer; other nodes must route readings to it.
	sample := func(netsim.NodeID, netsim.Time) int { return 7 }
	tn := newTestNet(t, meshTopo(4, 0.9), testConfig(), sample, 4)
	tn.sim.Run(12 * netsim.Minute)
	ix := tn.base.CurrentIndex()
	if ix == nil {
		t.Fatal("no index")
	}
	owner, ok := ix.Owner(7)
	if !ok {
		t.Fatal("value 7 unmapped")
	}
	if owner != 0 {
		if tn.stats.StoredAtOwner == 0 {
			t.Fatal("no readings stored at the owner")
		}
		// The owner's buffer holds readings from other producers.
		foreign := 0
		for _, r := range whole(tn.nodes[owner].Store()) {
			if netsim.NodeID(r.Producer) != owner {
				foreign++
			}
		}
		if foreign == 0 {
			t.Fatal("owner holds no foreign readings")
		}
	}
}

func TestValueQueryEndToEnd(t *testing.T) {
	cfg := testConfig()
	tn := newTestNet(t, meshTopo(5, 0.95), cfg, nil, 5)
	tn.sim.Run(10 * netsim.Minute)
	// Query the whole domain over recent history.
	now := tn.sim.Now()
	targets := tn.base.IssueQuery(workload.Query{
		ValueLo: 0, ValueHi: 20,
		TimeLo: 2 * netsim.Minute, TimeHi: now,
	})
	if len(targets) == 0 {
		t.Fatal("full-domain query targeted nobody")
	}
	tn.sim.Run(now + netsim.Minute)
	if tn.stats.RepliesReceived == 0 {
		t.Fatal("no replies arrived")
	}
	if tn.stats.TuplesReturned == 0 {
		t.Fatal("no tuples returned")
	}
}

func TestNodeListQuery(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 6)
	tn.sim.Run(8 * netsim.Minute)
	now := tn.sim.Now()
	targets := tn.base.IssueQuery(workload.Query{
		Nodes:  []netsim.NodeID{2, 3},
		TimeLo: 0, TimeHi: now,
	})
	if len(targets) != 2 {
		t.Fatalf("targets = %v, want [2 3]", targets)
	}
	tn.sim.Run(now + netsim.Minute)
	if tn.stats.RepliesReceived < 1 {
		t.Fatal("node-list query got no replies")
	}
}

func TestQueryBeforeFirstIndexTargetsEveryone(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 7)
	tn.sim.Run(3 * netsim.Minute) // before first remap
	targets := tn.base.IssueQuery(workload.Query{
		ValueLo: 0, ValueHi: 20,
		TimeLo: 2 * netsim.Minute, TimeHi: tn.sim.Now(),
	})
	if len(targets) != 4 {
		t.Fatalf("pre-index query targeted %d nodes, want all 4", len(targets))
	}
}

func TestPreloadedLocalIndexFloodsQueries(t *testing.T) {
	cfg := testConfig()
	cfg.Preload = index.NewLocal(1)
	tn := newTestNet(t, meshTopo(5, 0.95), cfg, nil, 8)
	tn.sim.Run(6 * netsim.Minute)
	// All data stays local.
	if tn.stats.StoredLocal != tn.stats.Produced {
		t.Fatalf("local policy stored %d of %d locally", tn.stats.StoredLocal, tn.stats.Produced)
	}
	if tn.ctr.Snapshot().Data != 0 {
		t.Fatal("local policy sent data messages")
	}
	targets := tn.base.IssueQuery(workload.Query{
		ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: tn.sim.Now(),
	})
	if len(targets) != 4 {
		t.Fatalf("local query targeted %d, want all", len(targets))
	}
}

func TestPreloadedBaseIndexSendsAllToBase(t *testing.T) {
	cfg := testConfig()
	owners := make([]netsim.NodeID, 21)
	cfg.Preload = index.New(1, 0, owners)
	cfg.BatchSize = 1
	tn := newTestNet(t, chainTopo(4, 0.95), cfg, nil, 9)
	tn.sim.Run(8 * netsim.Minute)
	if len(tn.base.store.buf) == 0 {
		t.Fatal("base stored nothing")
	}
	if tn.stats.StoredLocal != 0 {
		t.Fatal("send-to-base stored data on nodes")
	}
	// Queries cost nothing: answered from the base's store.
	n := tn.base.AnswerFromStore(workload.Query{
		ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: tn.sim.Now(),
	})
	if n == 0 {
		t.Fatal("base store answered no tuples")
	}
	if tn.ctr.Snapshot().Query != 0 {
		t.Fatal("BASE policy sent query messages")
	}
}

func TestAnswerFromStoreNodeFilter(t *testing.T) {
	cfg := testConfig()
	owners := make([]netsim.NodeID, 21)
	cfg.Preload = index.New(1, 0, owners)
	cfg.BatchSize = 1
	tn := newTestNet(t, meshTopo(4, 0.95), cfg, nil, 10)
	tn.sim.Run(8 * netsim.Minute)
	all := tn.base.AnswerFromStore(workload.Query{
		ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: tn.sim.Now(),
	})
	one := tn.base.AnswerFromStore(workload.Query{
		Nodes: []netsim.NodeID{2}, TimeLo: 0, TimeHi: tn.sim.Now(),
	})
	if one == 0 || one >= all {
		t.Fatalf("node filter returned %d of %d tuples", one, all)
	}
}

func TestQueryMaxFromSummaries(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 11)
	tn.sim.Run(8 * netsim.Minute)
	sent := tn.ctr.Snapshot().Query
	max, ok := tn.base.QueryMax(0, tn.sim.Now())
	if !ok {
		t.Fatal("QueryMax found no summaries")
	}
	// UNIQUE-style sampler: max must be the largest node ID heard.
	if max < 1 || max > 4 {
		t.Fatalf("max = %d, want within [1,4]", max)
	}
	if tn.ctr.Snapshot().Query != sent {
		t.Fatal("QueryMax cost network traffic")
	}
	if tn.stats.SummaryAnswered != 1 {
		t.Fatalf("SummaryAnswered = %d", tn.stats.SummaryAnswered)
	}
	if _, ok := tn.base.QueryMax(0, netsim.Time(1)); ok {
		t.Fatal("QueryMax answered for a window before any summary")
	}
}

func TestBatchingReducesDataMessages(t *testing.T) {
	// All nodes produce a constant owned by one node; with batching 5
	// the number of data messages must be far below the reading count.
	sample := func(netsim.NodeID, netsim.Time) int { return 3 }
	cfg := testConfig()
	cfg.Preload = index.New(1, 0, ownersConst(21, 1)) // node 1 owns all
	tn := newTestNet(t, meshTopo(4, 0.95), cfg, sample, 13)
	tn.sim.Run(15 * netsim.Minute)
	readingsRouted := tn.stats.StoredAtOwner
	msgs := tn.ctr.Snapshot().Data
	if readingsRouted == 0 {
		t.Fatal("nothing stored at owner")
	}
	// Mesh: one hop; ~1 message per 5 readings plus retries.
	if float64(msgs) > 0.6*float64(readingsRouted) {
		t.Fatalf("%v data msgs for %d routed readings; batching ineffective", msgs, readingsRouted)
	}
}

func TestBatchingDisabled(t *testing.T) {
	sample := func(netsim.NodeID, netsim.Time) int { return 3 }
	cfg := testConfig()
	cfg.Preload = index.New(1, 0, ownersConst(21, 1))
	cfg.BatchSize = 1
	tn := newTestNet(t, meshTopo(4, 0.95), cfg, sample, 13)
	tn.sim.Run(15 * netsim.Minute)
	msgs := tn.ctr.Snapshot().Data
	if float64(msgs) < 0.9*float64(tn.stats.StoredAtOwner) {
		t.Fatalf("unbatched run sent only %v msgs for %d readings", msgs, tn.stats.StoredAtOwner)
	}
}

func TestRule1RewritesInFlight(t *testing.T) {
	// A node holding an older index forwards data; a downstream node
	// with a newer index must redirect it.
	cfg := testConfig()
	tn := newTestNet(t, chainTopo(4, 0.95), cfg, nil, 14)
	tn.sim.Run(2 * netsim.Minute)
	// Hand node 3 (deep) an old index mapping everything to node 1;
	// hand node 2 (on the path) a newer index mapping everything to 2.
	old := index.New(5, 0, ownersConst(21, 1))
	newer := index.New(6, 0, ownersConst(21, 2))
	tn.nodes[3].cur = old
	tn.nodes[2].cur = newer
	tn.nodes[1].cur = newer
	// Node 3 produces value 9: old index says owner 1 (via 2); node 2
	// rewrites to itself and stores.
	tn.nodes[3].handleData(&DataMsg{
		Readings: oneReading(9, 3, tn.sim.Now()), Owner: 1, SID: 5,
	}, 0)
	tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
	found := false
	for _, r := range whole(tn.nodes[2].Store()) {
		if r.Value == 9 && r.Producer == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("rule 1 did not redirect the reading to the newer owner")
	}
}

func TestDataTTLDropsLoopingPackets(t *testing.T) {
	cfg := testConfig()
	tn := newTestNet(t, chainTopo(3, 0.95), cfg, nil, 15)
	tn.sim.Run(2 * netsim.Minute)
	lost := tn.stats.LostData
	tn.nodes[1].handleData(&DataMsg{
		Readings: oneReading(4, 2, tn.sim.Now()),
		Owner:    2, SID: 1,
	}, uint8(maxHops)) // maxHops transmissions before this one: one too many
	if tn.stats.LostData != lost+1 {
		t.Fatal("over-TTL packet not dropped")
	}
}

func TestIndexSimilaritySuppression(t *testing.T) {
	// A stable workload must make the base suppress most regenerations.
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 16)
	tn.sim.Run(20 * netsim.Minute)
	if tn.stats.IndexesBuilt < 5 {
		t.Fatalf("built only %d indexes", tn.stats.IndexesBuilt)
	}
	if tn.stats.IndexesSuppressed == 0 {
		t.Fatal("no suppression despite a stationary workload")
	}
	if len(tn.base.IndexHistory()) >= int(tn.stats.IndexesBuilt) {
		t.Fatal("history grew despite suppression")
	}
}

func TestNodeDeathDoesNotStallOthers(t *testing.T) {
	tn := newTestNet(t, meshTopo(6, 0.9), testConfig(), nil, 17)
	tn.sim.Run(6 * netsim.Minute)
	tn.net.Kill(2)
	tn.sim.Run(tn.sim.Now() + 10*netsim.Minute)
	// The rest of the network keeps producing and storing.
	if tn.stats.DataSuccessRate() < 0.5 {
		t.Fatalf("data success %.2f after one node death", tn.stats.DataSuccessRate())
	}
	if tn.base.CurrentIndex() == nil {
		t.Fatal("index construction stalled")
	}
}

func TestBitmap(t *testing.T) {
	var b Bitmap
	if b.Count() != 0 {
		t.Fatal("zero bitmap non-empty")
	}
	b.Set(0)
	b.Set(7)
	b.Set(127)
	if !b.Has(0) || !b.Has(7) || !b.Has(127) || b.Has(1) {
		t.Fatal("bitmap membership wrong")
	}
	if b.Has(200) {
		t.Fatal("out-of-range ID reported present")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
}

func TestRunStatsRates(t *testing.T) {
	s := &RunStats{}
	var blocks seenBlocks
	if s.DataSuccessRate() != 0 || s.QuerySuccessRate() != 0 || s.OwnerHitRate() != 0 {
		t.Fatal("zero stats produced nonzero rates")
	}
	s.Produced = 10
	if !s.markStored(&blocks, 1, 100) {
		t.Fatal("first store not unique")
	}
	if s.markStored(&blocks, 1, 100) {
		t.Fatal("duplicate store counted unique")
	}
	if !s.markStored(&blocks, 2, 100) {
		t.Fatal("different producer considered duplicate")
	}
	if s.StoredUnique != 2 {
		t.Fatalf("unique = %d", s.StoredUnique)
	}
	if s.DataSuccessRate() != 0.2 {
		t.Fatalf("rate = %f", s.DataSuccessRate())
	}
	s.StoredAtOwner, s.StoredAtBase = 85, 15
	if s.OwnerHitRate() != 0.85 {
		t.Fatalf("owner hit = %f", s.OwnerHitRate())
	}
}

// TestRunStatsAddCoversEveryCounter: Add lists its fields by hand, so a
// counter added to RunStats and forgotten there would silently read 0
// in multi-trial results and in exp.Trial.Stats. Every exported int64 field
// gets a distinct value and must come out summed.
func TestRunStatsAddCoversEveryCounter(t *testing.T) {
	var src RunStats
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Int64 {
			sv.Field(i).SetInt(int64(100 + i))
		}
	}
	var dst RunStats
	dst.Add(&src)
	dst.Add(&src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		f := dv.Type().Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		if got, want := dv.Field(i).Int(), int64(2*(100+i)); got != want {
			t.Errorf("RunStats.Add misses %s: got %d, want %d", f.Name, got, want)
		}
	}
}

// The system-level version of property P2: hammering a value band with
// queries makes the next remap move that band's ownership to the
// basestation (the adaptivity that gives the paper its title).
func TestAdaptationToQueryStorm(t *testing.T) {
	tn := newTestNet(t, meshTopo(6, 0.9), testConfig(), nil, 20)
	tn.sim.Run(10 * netsim.Minute)
	ix := tn.base.CurrentIndex()
	if ix == nil {
		t.Fatal("no index")
	}
	// Quiet phase: values live on their producers, not the base.
	if o, _ := ix.Owner(3); o == 0 {
		t.Skip("value already at base without queries; topology too small")
	}
	// Storm: query a hot band hard for several remap cycles. The band
	// must be wide enough that the regenerated index differs from the
	// active one by more than the similarity-suppression threshold —
	// a single changed value would be (correctly) suppressed.
	for i := 0; i < 150; i++ {
		tn.base.IssueQuery(workload.Query{
			ValueLo: 1, ValueHi: 5,
			TimeLo: tn.sim.Now() - netsim.Minute, TimeHi: tn.sim.Now(),
		})
		tn.sim.Run(tn.sim.Now() + 4*netsim.Second)
	}
	ix = tn.base.CurrentIndex()
	moved := 0
	for v := 1; v <= 5; v++ {
		if o, ok := ix.Owner(v); ok && o == 0 {
			moved++
		}
	}
	if moved < 3 {
		t.Fatalf("only %d/5 hot values moved to the basestation", moved)
	}
}

// The query profile drives targeting: after the storm the queried
// value is answered by the base alone, costing no reply traffic.
func TestQueryStatsTracked(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 21)
	tn.sim.Run(8 * netsim.Minute)
	for i := 0; i < 40; i++ {
		tn.base.IssueQuery(workload.Query{
			ValueLo: 2, ValueHi: 4,
			TimeLo: tn.sim.Now() - netsim.Minute, TimeHi: tn.sim.Now(),
		})
		tn.sim.Run(tn.sim.Now() + 5*netsim.Second)
	}
	tn.base.Remap()
	tn.sim.Run(tn.sim.Now() + netsim.Minute)
	targets := tn.base.IssueQuery(workload.Query{
		ValueLo: 2, ValueHi: 4,
		TimeLo: tn.sim.Now() - 30*netsim.Second, TimeHi: tn.sim.Now(),
	})
	// The hot range should now be concentrated on very few nodes
	// (ideally just the base).
	if len(targets) > 2 {
		t.Fatalf("hot range still scattered over %d nodes", len(targets))
	}
}

// Paper §5.3: "mapping packets may get lost, leaving nodes with
// incomplete storage indices. In that case, nodes continue to use the
// older complete storage index they have."
func TestIncompleteIndexKeepsOlderGeneration(t *testing.T) {
	tn := newTestNet(t, meshTopo(4, 0.95), testConfig(), nil, 30)
	tn.sim.Run(8 * netsim.Minute)
	node := tn.nodes[2]
	old := node.cur
	if old == nil {
		t.Fatal("no index adopted")
	}
	// Hand-craft a newer generation (alternating owners so it spans
	// several chunks) but deliver only its first chunk.
	owners := make([]netsim.NodeID, 21)
	for i := range owners {
		owners[i] = netsim.NodeID(1 + i%3)
	}
	newer := index.New(old.ID+10, 0, owners)
	chunks := newer.Chunks(2)
	if len(chunks) < 2 {
		t.Fatalf("test index too small to chunk (%d)", len(chunks))
	}
	node.onChunk(chunks[0])
	if node.cur.ID != old.ID {
		t.Fatal("node adopted an incomplete index")
	}
	// Delivering the rest completes the switch.
	for _, c := range chunks[1:] {
		node.onChunk(c)
	}
	if node.cur.ID != newer.ID {
		t.Fatal("node did not adopt the completed index")
	}
}

// A network-wide interference blackout must not wedge the protocol:
// once links return, summaries flow and new indices disseminate.
func TestBlackoutRecovery(t *testing.T) {
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 31)
	tn.sim.Run(8 * netsim.Minute)
	if tn.base.CurrentIndex() == nil {
		t.Fatal("no index before blackout")
	}
	tn.net.ScaleAllLinks(0)
	tn.sim.Run(tn.sim.Now() + 4*netsim.Minute)
	received := tn.stats.SummariesReceived
	tn.net.ScaleAllLinks(1)
	tn.sim.Run(tn.sim.Now() + 6*netsim.Minute)
	if tn.stats.SummariesReceived <= received {
		t.Fatal("no summaries after the blackout lifted")
	}
	// Queries work again end to end.
	before := tn.stats.RepliesReceived
	tn.base.IssueQuery(workload.Query{
		ValueLo: 0, ValueHi: 20,
		TimeLo: tn.sim.Now() - 2*netsim.Minute, TimeHi: tn.sim.Now(),
	})
	tn.sim.Run(tn.sim.Now() + netsim.Minute)
	if tn.stats.RepliesReceived <= before {
		t.Fatal("no replies after recovery")
	}
}

// Out-of-domain values (possible when the configured domain is
// narrower than what a sensor emits) fall back to local storage
// rather than being dropped.
func TestOutOfDomainValuesStoredLocally(t *testing.T) {
	sample := func(netsim.NodeID, netsim.Time) int { return 500 } // outside [0,20]
	cfg := testConfig()
	cfg.Preload = index.New(1, 0, ownersConst(21, 1))
	tn := newTestNet(t, meshTopo(3, 0.95), cfg, sample, 32)
	tn.sim.Run(8 * netsim.Minute)
	if tn.stats.StoredLocal != tn.stats.Produced {
		t.Fatalf("out-of-domain readings: local=%d produced=%d",
			tn.stats.StoredLocal, tn.stats.Produced)
	}
}

// Duplicate query packets (Trickle re-broadcasts) must produce exactly
// one reply per node.
func TestDuplicateQueriesAnsweredOnce(t *testing.T) {
	tn := newTestNet(t, meshTopo(3, 0.95), testConfig(), nil, 33)
	tn.sim.Run(6 * netsim.Minute)
	q := &QueryMsg{ID: 77, ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: tn.sim.Now()}
	q.Bitmap.Set(1)
	tn.nodes[1].onQuery(q)
	tn.nodes[1].onQuery(q)
	tn.nodes[1].onQuery(q)
	tn.sim.Run(tn.sim.Now() + 30*netsim.Second)
	if tn.stats.RepliesSent != 1 {
		t.Fatalf("node replied %d times to one query", tn.stats.RepliesSent)
	}
}

// deliveredLog is a trace sink counting reading-delivered events.
type deliveredLog struct{ n int }

func (l *deliveredLog) Record(b *trace.Block) {
	b.Each(func(e trace.Event) {
		if e.Kind == trace.ReadingDelivered {
			l.n++
		}
	})
}
func (l *deliveredLog) Close() error { return nil }

// A reading stored at two owners comes back from both when a query
// reaches both. The query's tuples and its reading-delivered events
// hold it once; TuplesReturned stays the owners' match count.
func TestReplyDeliversReadingOnce(t *testing.T) {
	cfg := testConfig()
	var log deliveredLog
	var tn *testNet
	cfg.Trace = trace.New(func() int64 { return int64(tn.sim.Now()) }, &log)
	tn = newTestNet(t, meshTopo(3, 1), cfg, nil, 5)
	tn.sim.Run(netsim.Minute)
	tn.base.IssueQuery(workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 0, TimeHi: netsim.Minute})
	qid := tn.base.LastQueryID()
	for _, owner := range []netsim.NodeID{1, 2} {
		tn.base.onReply(&ReplyMsg{QueryID: qid, Node: owner, Count: 1, Readings: oneReading(7, 1, 30*netsim.Second)})
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tn.base.QueryResults(qid); len(got) != 1 {
		t.Errorf("query holds %d tuples %v, want the one reading once", len(got), got)
	}
	if log.n != 1 {
		t.Errorf("%d reading-delivered events, want 1", log.n)
	}
	if tn.stats.RepliesReceived != 2 || tn.stats.TuplesReturned != 2 {
		t.Errorf("replies %d, tuples returned %d; want 2 and 2 (each owner's match count)",
			tn.stats.RepliesReceived, tn.stats.TuplesReturned)
	}
}

// A summary whose ack was lost arrives again: the base counts it and
// keeps it in its history once.
func TestBaseCountsRetransmittedSummaryOnce(t *testing.T) {
	tn := newTestNet(t, meshTopo(3, 1), testConfig(), nil, 6)
	m := &SummaryMsg{Node: 1, Min: 3, Max: 9, SentAt: netsim.Minute}
	tn.base.onSummary(m, 0)
	tn.base.onSummary(m, 1) // the retransmitted copy
	tn.base.onSummary(&SummaryMsg{Node: 2, SentAt: netsim.Minute}, 0)
	if got := tn.stats.SummariesReceived; got != 2 {
		t.Errorf("SummariesReceived = %d, want 2", got)
	}
	if got := len(tn.base.history); got != 2 {
		t.Errorf("history holds %d summaries, want 2", got)
	}
}
