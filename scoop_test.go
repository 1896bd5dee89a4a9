package scoop

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"scoop/internal/exp"
	"scoop/internal/netsim"
)

func TestSimulationLifecycle(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Nodes:  20,
		Seed:   7,
		Warmup: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Nodes() != 20 {
		t.Fatalf("nodes = %d", sim.Nodes())
	}
	sim.Run(12 * time.Minute)
	if sim.Elapsed() != 12*time.Minute {
		t.Fatalf("elapsed = %v", sim.Elapsed())
	}
	st := sim.Stats()
	if st.Produced == 0 {
		t.Fatal("no samples taken")
	}
	if len(sim.IndexRanges()) == 0 {
		t.Fatal("no index ranges after 12 minutes")
	}
	res := sim.QueryValues(0, 150, 5*time.Minute, time.Minute)
	if res.Targets == 0 {
		t.Fatal("full-domain query targeted nobody")
	}
	if res.Tuples == 0 {
		t.Fatal("no tuples returned")
	}
	if len(res.Readings) == 0 {
		t.Fatal("no readings carried back")
	}
	for _, r := range res.Readings {
		if r.Value < 0 || r.Value > 150 {
			t.Fatalf("reading value %d outside domain", r.Value)
		}
		if r.Node < 0 || r.Node >= 20 {
			t.Fatalf("reading from unknown node %d", r.Node)
		}
	}
}

func TestSimulationNodeQuery(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{Nodes: 12, Seed: 9, Warmup: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	res := sim.QueryNodes([]int{3, 4}, 5*time.Minute, time.Minute)
	if res.Targets != 2 {
		t.Fatalf("targets = %d", res.Targets)
	}
	// Queried nodes scan their own buffers (paper §5.5), which may
	// hold readings they store on behalf of other producers — so the
	// producer set is unconstrained, but values must be in-domain.
	for _, r := range res.Readings {
		if r.Value < 0 || r.Value > 150 {
			t.Fatalf("reading value %d outside domain", r.Value)
		}
	}
}

func TestSimulationQueryMax(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{Nodes: 12, Seed: 11, Warmup: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	before := sim.Messages().Total()
	max, ok := sim.QueryMax(8 * time.Minute)
	if !ok {
		t.Fatal("QueryMax failed")
	}
	if max <= 0 || max > 150 {
		t.Fatalf("max = %d outside REAL domain", max)
	}
	if sim.Messages().Total() != before {
		t.Fatal("summary-based query cost messages")
	}
}

func TestSimulationCustomSampler(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Nodes:  10,
		Seed:   13,
		Warmup: 2 * time.Minute,
		Sampler: func(node int, _ time.Duration) int {
			return node * 2
		},
		DomainLo: 0,
		DomainHi: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	res := sim.QueryValues(0, 20, 5*time.Minute, time.Minute)
	for _, r := range res.Readings {
		if r.Value != r.Node*2 {
			t.Fatalf("node %d reported %d, want %d", r.Node, r.Value, r.Node*2)
		}
	}
}

func TestSimulationCustomSamplerNeedsDomain(t *testing.T) {
	_, err := NewSimulation(SimulationConfig{
		Nodes:   10,
		Sampler: func(int, time.Duration) int { return 1 },
	})
	if err == nil {
		t.Fatal("accepted sampler without domain")
	}
}

// Bad timings come back as errors: a sample interval under the virtual
// clock's 1 ms tick used to panic inside a node's first timer draw, and
// a negative warm-up was silently accepted.
func TestSimulationRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SimulationConfig
		want string
	}{
		{"negative-sample", SimulationConfig{SampleInterval: -time.Second}, "sample interval"},
		{"sub-ms-sample", SimulationConfig{SampleInterval: 500 * time.Microsecond}, "sample interval"},
		{"negative-warmup", SimulationConfig{Warmup: -time.Minute}, "warmup"},
		{"bad-topology", SimulationConfig{Topology: "torus"}, "unknown topology"},
		{"too-many-nodes", SimulationConfig{Nodes: 2000}, "network size"},
		{"empty-sampler-domain", SimulationConfig{Sampler: func(int, time.Duration) int { return 1 },
			DomainLo: 10, DomainHi: 3}, "sampler domain"},
	} {
		_, err := NewSimulation(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewSimulation(SimulationConfig{Nodes: 5, SampleInterval: time.Millisecond}); err != nil {
		t.Fatalf("a 1 ms sample interval is valid: %v", err)
	}
}

// TestSimulationKillRevive fails node 5, revives it, fails it again and
// restarts it. A revived node keeps its state but its lapsed timers
// stay silent, so it answers queries without sampling; a restarted
// node reboots its timers and samples again.
func TestSimulationKillRevive(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{Nodes: 15, Seed: 17, Warmup: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6 * time.Minute)
	sim.KillNode(5)
	sim.Run(2 * time.Minute)
	before := sim.Stats().Produced
	sim.Run(4 * time.Minute)
	st := sim.Stats()
	if st.DataSuccess < 0.5 {
		t.Fatalf("network collapsed after one failure: %.2f", st.DataSuccess)
	}
	// The other 13 sensors' output over four minutes.
	others := st.Produced - before
	// Only node 5 can send a reply to a query addressed to it alone.
	replies := func() float64 {
		sent := sim.Messages().Reply
		sim.QueryNodes([]int{5}, sim.Elapsed(), time.Minute)
		return sim.Messages().Reply - sent
	}
	if n := replies(); n != 0 {
		t.Fatalf("dead node 5 sent %.0f reply frames", n)
	}

	sim.ReviveNode(5)
	sim.Run(4 * time.Minute)
	if n := replies(); n == 0 {
		t.Fatal("revived node 5 did not reply to a query")
	}

	sim.KillNode(5)
	sim.Run(time.Minute)
	sim.RestartNode(5)
	before = sim.Stats().Produced
	sim.Run(4 * time.Minute)
	if got := sim.Stats().Produced - before; got <= others {
		t.Fatalf("restarted node 5 samples nothing: %d readings in four minutes, the others alone make %d",
			got, others)
	}
}

func TestBreakdownTotalExcludesBeacons(t *testing.T) {
	b := Breakdown{Data: 1, Summary: 2, Mapping: 3, Query: 4, Reply: 5, Beacon: 100}
	if b.Total() != 15 {
		t.Fatalf("total = %f", b.Total())
	}
}

// TestSimulationMatchesTrial holds the facade to the harness: a
// hand-stepped Simulation is exp's trial 0 of the same config with the
// query ticker off, counter for counter, and Stats reports each of
// trial 0's counters under its own name.
func TestSimulationMatchesTrial(t *testing.T) {
	wave := func(node int, elapsed time.Duration) int { return node*3 + int(elapsed/time.Minute)%40 }
	for _, tc := range []struct {
		name    string
		sampler func(int, time.Duration) int
	}{
		{"gaussian", nil},
		{"sampler", wave},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := NewSimulation(SimulationConfig{Nodes: 20, Seed: 7, Topology: TopologyGrid,
				Source: SourceGaussian, Warmup: 2 * time.Minute, Sampler: tc.sampler, DomainLo: 0, DomainHi: 80})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(5 * time.Minute)
			sim.Run(7 * time.Minute)

			cfg := exp.Default()
			cfg.N, cfg.Seed, cfg.Topology, cfg.Source = 20, 7, "grid", "gaussian"
			cfg.Warmup, cfg.Duration, cfg.QueryInterval, cfg.Trials = 2*netsim.Minute, 12*netsim.Minute, 0, 1
			if tc.sampler != nil {
				cfg.Sampler = clampSampler{tc.sampler, 0, 80}
			}
			res, err := exp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := res.PerTrial[0]
			got := sim.tr.Stats()
			got.ReindexWallNanos, want.Stats.ReindexWallNanos = 0, 0
			if !reflect.DeepEqual(got, want.Stats) {
				t.Errorf("RunStats:\n facade %+v\n trial0 %+v", got, want.Stats)
			}
			if b := sim.tr.Network().Counters.Snapshot(); b != want.Breakdown {
				t.Errorf("breakdown: facade %+v, trial 0 %+v", b, want.Breakdown)
			}
			ws, wb := &want.Stats, want.Breakdown
			wantRes := ExperimentResult{
				Breakdown: Breakdown{Data: wb.Data, Summary: wb.Summary, Mapping: wb.Mapping,
					Query: wb.Query, Reply: wb.Reply, Beacon: wb.Beacon},
				Produced:        ws.Produced,
				StoredUnique:    ws.StoredUnique,
				StoredLocal:     ws.StoredLocal,
				DataSuccess:     ws.DataSuccessRate(),
				OwnerHitRate:    ws.OwnerHitRate(),
				QuerySuccess:    ws.QuerySuccessRate(),
				QueriesIssued:   ws.QueriesIssued,
				TuplesReturned:  ws.TuplesReturned,
				IndexesBuilt:    ws.IndexesBuilt,
				IndexSuppressed: ws.IndexesSuppressed,
			}
			if res := sim.Stats(); res != wantRes {
				t.Errorf("Stats:\n facade %+v\n trial0 %+v", res, wantRes)
			}
		})
	}
}
