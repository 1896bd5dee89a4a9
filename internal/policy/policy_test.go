package policy

import (
	"slices"
	"testing"
	"testing/quick"

	"scoop/internal/core"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// runPolicy runs the policy's configuration on a five-node mesh long
// enough for SCOOP to build its first index, and returns the run's
// statistics.
func runPolicy(t *testing.T, p Name) core.RunStats {
	t.Helper()
	cfg, err := Config(p, 5, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SampleInterval = 5 * netsim.Second
	cfg.SummaryInterval = 30 * netsim.Second
	cfg.RemapInterval = 60 * netsim.Second
	topo := netsim.NewTopology(5)
	topo.Pos = make([]netsim.Point, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				topo.SetQuality(netsim.NodeID(i), netsim.NodeID(j), 0.95)
			}
		}
	}
	sim := netsim.NewSimulator(7)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	stats := &core.RunStats{}
	net.Attach(0, core.NewBase(cfg, stats, 2*netsim.Minute))
	for i := 1; i < 5; i++ {
		sample := func(id netsim.NodeID, _ netsim.Time) int { return int(id) }
		net.Attach(netsim.NodeID(i), core.NewNode(cfg, stats, sample, 2*netsim.Minute))
	}
	net.Start()
	sim.Run(8 * netsim.Minute)
	return *stats
}

// A preloaded index is a static comparator: LOCAL, BASE and HASHSIM
// send no summaries and build no index, while SCOOP adapts.
func TestStaticPoliciesSendNoStatistics(t *testing.T) {
	for _, p := range []Name{Local, Base, HashSim} {
		if st := runPolicy(t, p); st.SummariesSent != 0 || st.IndexesBuilt != 0 {
			t.Errorf("%s: %d summaries sent, %d indexes built; want none", p, st.SummariesSent, st.IndexesBuilt)
		}
	}
	if st := runPolicy(t, Scoop); st.SummariesSent == 0 || st.IndexesBuilt == 0 {
		t.Errorf("scoop: %d summaries sent, %d indexes built; want both > 0", st.SummariesSent, st.IndexesBuilt)
	}
}

func TestConfigScoop(t *testing.T) {
	cfg, err := Config(Scoop, 63, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Preload != nil {
		t.Fatal("scoop config must run the full protocol")
	}
}

func TestConfigLocal(t *testing.T) {
	cfg, err := Config(Local, 63, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Preload == nil || !cfg.Preload.Local {
		t.Fatal("local config must preload a store-local index")
	}
}

func TestConfigBase(t *testing.T) {
	cfg, err := Config(Base, 63, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Preload == nil {
		t.Fatal("no preload")
	}
	for v := 0; v <= 150; v += 10 {
		if o, ok := cfg.Preload.Owner(v); !ok || o != 0 {
			t.Fatalf("value %d owned by %d, want base", v, o)
		}
	}
	if cfg.BatchSize != 1 {
		t.Fatal("BASE must ship unbatched, TinyDB-style")
	}
}

func TestConfigHashSim(t *testing.T) {
	cfg, err := Config(HashSim, 63, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[netsim.NodeID]bool{}
	for v := 0; v <= 150; v++ {
		o, ok := cfg.Preload.Owner(v)
		if !ok {
			t.Fatalf("value %d unmapped", v)
		}
		if o == 0 {
			t.Fatalf("hash assigned value %d to the basestation", v)
		}
		owners[o] = true
	}
	if len(owners) < 20 {
		t.Fatalf("hash used only %d distinct owners; should spread", len(owners))
	}
}

func TestConfigHashNotRunnable(t *testing.T) {
	if _, err := Config("hash", 63, 0, 150); err == nil {
		t.Fatal("the analytical hash must not yield a runnable config")
	}
	if _, err := Config("bogus", 63, 0, 150); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Property: the hash index is deterministic and never picks the base.
func TestHashOwnerProperty(t *testing.T) {
	f := func(v int16, nSeed uint8) bool {
		n := int(nSeed%100) + 3
		a := hashOwner(int(v), n)
		b := hashOwner(int(v), n)
		return a == b && a != 0 && int(a) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticalHashScalesWithWorkload(t *testing.T) {
	topo := netsim.UniformTopology(40, 7, 3.5, 3)
	w := HashWorkload{SamplesPerNode: 100, Queries: 50, QueryWidth: 4}
	b1 := AnalyticalHash(topo, w)
	w2 := w
	w2.SamplesPerNode = 200
	b2 := AnalyticalHash(topo, w2)
	if b2.Data <= b1.Data*1.9 {
		t.Fatalf("doubling samples did not double data cost: %f vs %f", b1.Data, b2.Data)
	}
	if b2.Query != b1.Query {
		t.Fatal("sample rate changed query cost")
	}
	w3 := w
	w3.Queries = 100
	b3 := AnalyticalHash(topo, w3)
	if b3.Query <= b1.Query*1.9 {
		t.Fatalf("doubling queries did not double query cost")
	}
}

func TestAnalyticalHashQueryWidthCapped(t *testing.T) {
	topo := netsim.UniformTopology(10, 4, 3.5, 4)
	w := HashWorkload{SamplesPerNode: 1, Queries: 1, QueryWidth: 500}
	b := AnalyticalHash(topo, w)
	wCap := HashWorkload{SamplesPerNode: 1, Queries: 1, QueryWidth: 9}
	bCap := AnalyticalHash(topo, wCap)
	if b.Query != bCap.Query {
		t.Fatalf("query width not capped at n-1 owners: %f vs %f", b.Query, bCap.Query)
	}
}

// Names is every runnable policy, in the order that fixes the cell
// indices (and so the seeds) of sweep.Default's grid.
func TestNamesOrder(t *testing.T) {
	if names := Names(); !slices.Equal(names, []Name{Scoop, Local, HashSim, Base}) {
		t.Fatalf("names = %v", names)
	}
}

func TestHashIndexMatchesHashOwner(t *testing.T) {
	ix := HashIndex(3, 20, 0, 50)
	for v := 0; v <= 50; v++ {
		o, ok := ix.Owner(v)
		if !ok || o != hashOwner(v, 20) {
			t.Fatalf("index owner %d != hash owner %d for value %d", o, hashOwner(v, 20), v)
		}
	}
}
