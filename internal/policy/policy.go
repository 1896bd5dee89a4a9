// Package policy provides the comparator storage policies from the
// paper's evaluation (§6): LOCAL (store locally, flood queries), BASE
// (send everything to the basestation), and HASHSIM (static uniform
// value→node hash, the GHT-style data-centric storage baseline).
//
// LOCAL, BASE and HASHSIM are expressed as configurations of the full
// Scoop protocol stack with a preloaded fixed index, which turns
// statistics traffic and index recomputation off, so all policies share
// identical radio, routing and query-dissemination machinery — exactly
// the paper's setup, where all policies ran on the same TinyOS
// networking stack.
//
// The paper evaluated HASH analytically ("because we did not have a
// working implementation of HASH … we evaluate the cost of this HASH
// approach analytically"); HASHSIM simulates it. AnalyticalHash and
// AnalyticalBaseData keep the paper's method as pure functions of a
// topology and a workload volume, from which exp.DeriveHash derives the
// paper's HASH column out of a BASE run.
package policy

import (
	"fmt"

	"scoop/internal/core"
	"scoop/internal/index"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// Name identifies a storage policy.
type Name string

// The runnable policies: SCOOP and the paper's three comparators, HASH
// simulated.
const (
	Scoop   Name = "scoop"
	Local   Name = "local"
	Base    Name = "base"
	HashSim Name = "hashsim"
)

// Names lists the runnable policies in the paper's display order.
func Names() []Name { return []Name{Scoop, Local, HashSim, Base} }

// Config returns the core protocol configuration implementing the
// named policy over an n-node network and the value domain [lo,hi].
func Config(p Name, n, lo, hi int) (core.Config, error) {
	cfg := core.DefaultConfig(lo, hi)
	switch p {
	case Scoop:
		return cfg, nil
	case Local:
		cfg.Preload = index.NewLocal(1)
		return cfg, nil
	case Base:
		owners := make([]netsim.NodeID, hi-lo+1) // all zero: the base
		cfg.Preload = index.New(1, lo, owners)
		// TinyDB-style collection ships every sample as it is taken;
		// reading batching is Scoop's optimisation (paper §5.4), not
		// the baseline's.
		cfg.BatchSize = 1
		return cfg, nil
	case HashSim:
		cfg.Preload = HashIndex(1, n, lo, hi)
		return cfg, nil
	}
	return core.Config{}, fmt.Errorf("policy: unknown policy %q", p)
}

// HashIndex builds the static uniform value→node index the HASH
// policy uses: value v lives on node (hash(v) mod n-1)+1, never the
// basestation.
func HashIndex(id uint16, n, lo, hi int) *index.Index {
	owners := make([]netsim.NodeID, hi-lo+1)
	for i := range owners {
		owners[i] = hashOwner(lo+i, n)
	}
	return index.New(id, lo, owners)
}

// hashOwner is the Fibonacci-style integer hash assigning values to
// non-base nodes.
func hashOwner(v, n int) netsim.NodeID {
	h := uint32(v) * 2654435761
	return netsim.NodeID(h%uint32(n-1)) + 1
}

// HashWorkload summarises what the analytical HASH model needs to
// know about a run.
type HashWorkload struct {
	SamplesPerNode float64 // readings each non-base node produces
	Queries        float64 // queries issued
	QueryWidth     float64 // mean values per query range
}

// AnalyticalHash evaluates the HASH policy the way the paper does:
// expected transmissions over the true topology's ETX metric, with no
// summary or mapping overhead.
//
//   - Every reading travels from its producer to a uniformly random
//     node: expected cost is the producer's mean ETX distance to all
//     non-base nodes. (Consecutive values hash apart, so the paper's
//     5-reading batching never engages, as with RANDOM under Scoop.)
//   - Every query contacts the owners of its value range directly:
//     one base→owner→base round trip per distinct owner.
func AnalyticalHash(topo *netsim.Topology, w HashWorkload) metrics.Breakdown {
	x := trueXmits(topo)
	var data float64
	for p := 1; p < topo.N; p++ {
		var mean float64
		cnt := 0
		for o := 1; o < topo.N; o++ {
			if o == p {
				cnt++ // storing on yourself costs nothing
				continue
			}
			if x[p][o] >= index.Inf {
				continue
			}
			mean += x[p][o]
			cnt++
		}
		if cnt > 0 {
			data += w.SamplesPerNode * mean / float64(cnt)
		}
	}
	query := 0.0
	// Mean round trip from the base to a uniformly random owner.
	var rt float64
	cnt := 0
	for o := 1; o < topo.N; o++ {
		r := index.RoundTrip(x, 0, netsim.NodeID(o))
		if r >= index.Inf {
			continue
		}
		rt += r
		cnt++
	}
	if cnt > 0 {
		rt /= float64(cnt)
	}
	// A width-w range hashes to ~min(w, n-1) distinct owners.
	owners := w.QueryWidth
	if max := float64(topo.N - 1); owners > max {
		owners = max
	}
	query = w.Queries * owners * rt
	// Half the round-trip messages are outbound queries, half replies.
	return metrics.Breakdown{Data: data, Query: query / 2, Reply: query / 2}
}

// AnalyticalBaseData evaluates the send-to-base policy's data cost
// under the same pure-ETX model AnalyticalHash uses: every reading
// travels producer→base. Dividing a *measured* BASE run by this number
// yields the radio-inflation factor (retries, collisions, queue
// drops) that the analytical HASH numbers must be scaled by to be
// comparable with simulated policies — the paper evaluated HASH
// "analytically in our simulator", i.e. under the simulator's cost
// conditions.
func AnalyticalBaseData(topo *netsim.Topology, w HashWorkload) float64 {
	x := trueXmits(topo)
	var data float64
	for p := 1; p < topo.N; p++ {
		if x[p][0] >= index.Inf {
			continue
		}
		data += w.SamplesPerNode * x[p][0]
	}
	return data
}

// trueXmits is the xmits matrix over the true topology: every audible
// link reported at its real quality, the model both analytical
// policies evaluate under.
func trueXmits(topo *netsim.Topology) [][]float64 {
	g := index.NewGraph(topo.N)
	for i := 0; i < topo.N; i++ {
		for _, lk := range topo.OutLinks(netsim.NodeID(i)) {
			g.Report(netsim.NodeID(i), lk.Dst, lk.Quality)
		}
	}
	return g.Xmits()
}
