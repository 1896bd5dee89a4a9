package core

import (
	"testing"

	"scoop/internal/netsim"
)

// RemapLimit 1 builds exactly one index and then freezes: no further
// remap timer fires, however long the run.
func TestRemapLimitFreezesIndex(t *testing.T) {
	cfg := testConfig()
	cfg.RemapLimit = 1
	tn := newTestNet(t, chainTopo(4, 0.95), cfg, nil, 41)
	tn.sim.Run(20 * netsim.Minute)
	if tn.stats.IndexesBuilt != 1 {
		t.Fatalf("indexes built = %d, want exactly 1", tn.stats.IndexesBuilt)
	}
	if tn.base.CurrentIndex() == nil {
		t.Fatal("the single allowed remap never produced an index")
	}

	// Unlimited control: the same run keeps rebuilding.
	cfg.RemapLimit = 0
	tn2 := newTestNet(t, chainTopo(4, 0.95), cfg, nil, 41)
	tn2.sim.Run(20 * netsim.Minute)
	if tn2.stats.IndexesBuilt <= 1 {
		t.Fatalf("unlimited remaps built %d indexes, want several", tn2.stats.IndexesBuilt)
	}
}

// With StatStaleAfter set, a node that stops reporting ages out of
// index construction: the rebuilt index assigns it no values.
func TestStaleSummariesAgeOutOfIndex(t *testing.T) {
	cfg := testConfig()
	cfg.StatStaleAfter = 3 * cfg.SummaryInterval
	tn := newTestNet(t, meshTopo(4, 0.95), cfg, nil, 42)
	tn.sim.Run(8 * netsim.Minute)
	ix := tn.base.CurrentIndex()
	if ix == nil {
		t.Fatal("no index built")
	}
	owned := func() bool {
		// Node 3 produces value 3 (idSampler), so a fresh index
		// assigns it at least its own value.
		o, ok := ix.Owner(3)
		return ok && o == 3
	}
	if !owned() {
		t.Fatalf("live node 3 does not own its value in %v", ix)
	}

	// Kill node 3; after its statistics exceed the staleness horizon,
	// the next rebuild must stop assigning it anything.
	tn.net.Kill(3)
	tn.sim.Run(tn.sim.Now() + 6*netsim.Minute)
	ix = tn.base.CurrentIndex()
	for v := 0; v <= 20; v++ {
		if o, ok := ix.Owner(v); ok && o == 3 {
			t.Fatalf("dead node 3 still owns value %d after staleness horizon", v)
		}
	}

	// Control: without the staleness horizon the dead node keeps its
	// last-known statistics and can keep winning ownership.
	cfg.StatStaleAfter = 0
	tn2 := newTestNet(t, meshTopo(4, 0.95), cfg, nil, 42)
	tn2.sim.Run(8 * netsim.Minute)
	tn2.net.Kill(3)
	tn2.sim.Run(tn2.sim.Now() + 6*netsim.Minute)
	ix2 := tn2.base.CurrentIndex()
	if o, ok := ix2.Owner(3); !ok || o != 3 {
		t.Fatalf("without staleness, dead node 3 should retain value 3 (got %v, %v)", o, ok)
	}
}

// A killed-then-restarted node rejoins the protocol: it re-forms a
// route, resumes sampling, and its summaries reach the base again.
func TestRestartedNodeRejoins(t *testing.T) {
	cfg := testConfig()
	tn := newTestNet(t, meshTopo(4, 0.95), cfg, nil, 43)
	tn.sim.Run(8 * netsim.Minute)
	produced := tn.stats.Produced
	if produced == 0 {
		t.Fatal("nothing produced before the kill")
	}

	tn.net.Kill(3)
	tn.sim.Run(tn.sim.Now() + 3*netsim.Minute)
	tn.net.Restart(3)
	// A reboot loses RAM: the node must come back index-less and
	// re-learn the current generation from Trickle redissemination.
	if tn.nodes[3].cur != nil {
		t.Fatal("restarted node kept its pre-crash index")
	}
	tn.sim.Run(tn.sim.Now() + 5*netsim.Minute)

	if tn.nodes[3].cur == nil {
		t.Fatal("restarted node never re-assembled an index")
	}
	if !tn.nodes[3].tree.HasRoute() {
		t.Fatal("restarted node never re-formed a route")
	}
	if tn.stats.Produced <= produced {
		t.Fatal("restarted node is not sampling")
	}
}
