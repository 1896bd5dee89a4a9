package core

import (
	"math/rand"
	"reflect"
	"testing"

	"scoop/internal/netsim"
	"scoop/internal/query"
)

// refLatestSummaries is the planner's history read as it was before the
// base indexed its summaries by node, kept as the reference model: copy
// the whole retained history into the estimator's snapshots, keep each
// node's latest one inside the window in a map, and emit them in
// ascending node order. It costs O(history) and a map per aggregate
// query; its result is the specification.
func refLatestSummaries(history []*SummaryMsg, t0, t1 netsim.Time) []query.SummarySnapshot {
	snaps := make([]query.SummarySnapshot, 0, len(history))
	for _, s := range history {
		snaps = append(snaps, query.SummarySnapshot{
			Node: uint16(s.Node), SentAt: s.SentAt,
			Min: s.Min, Max: s.Max, Sum: s.Sum,
			Rate: s.Rate, Hist: s.Hist,
		})
	}
	byNode := make(map[uint16]query.SummarySnapshot)
	maxNode := uint16(0)
	for _, s := range snaps {
		if s.SentAt < t0 || s.SentAt > t1 {
			continue
		}
		if cur, ok := byNode[s.Node]; !ok || s.SentAt > cur.SentAt {
			byNode[s.Node] = s
			maxNode = max(maxNode, s.Node)
		}
	}
	out := make([]query.SummarySnapshot, 0, len(byNode))
	for id := uint16(0); len(out) < len(byNode); id++ {
		if s, ok := byNode[id]; ok {
			out = append(out, s)
		}
		if id == maxNode {
			break
		}
	}
	return out
}

// TestLatestSummariesMatchReference holds the base's per-node summary
// index to the copy-and-map reference: over a run's real history, with
// summaries the run did not send mixed in out of SentAt order (a late
// retransmission, an older copy arriving after a newer one), for
// windows that reach the present, lie in the past, hold one instant,
// precede or follow every summary, or are inverted.
func TestLatestSummariesMatchReference(t *testing.T) {
	tn := newTestNet(t, chainTopo(6, 0.9), testConfig(), nil, 5)
	tn.sim.Run(12 * netsim.Minute)
	b := tn.base
	if len(b.history) < 50 {
		t.Fatalf("only %d summaries retained; the run is too short to test anything", len(b.history))
	}
	// Out-of-order arrivals on top of the run's own history.
	for _, s := range []struct {
		node netsim.NodeID
		at   netsim.Time
	}{{3, 5*netsim.Minute + 7}, {3, 2*netsim.Minute + 1}, {5, 11 * netsim.Minute}, {5, 3 * netsim.Minute}, {1, 0}} {
		b.onSummary(&SummaryMsg{Node: s.node, SentAt: s.at, Min: int(s.node), Max: int(s.at % 100), Rate: 0.5}, 1)
	}
	rng := rand.New(rand.NewSource(1))
	windows := [][2]netsim.Time{
		{0, tn.sim.Now()}, {0, 0}, {-netsim.Minute, -1}, {tn.sim.Now() + 1, tn.sim.Now() + netsim.Minute},
		{5 * netsim.Minute, 4 * netsim.Minute}, {5*netsim.Minute + 7, 5*netsim.Minute + 7},
	}
	for k := 0; k < 300; k++ {
		t0 := netsim.Time(rng.Int63n(int64(13 * netsim.Minute)))
		windows = append(windows, [2]netsim.Time{t0, t0 + netsim.Time(rng.Int63n(int64(4*netsim.Minute)))})
	}
	hits := 0
	for _, w := range windows {
		got, want := b.latestSummaries(w[0], w[1]), refLatestSummaries(b.history, w[0], w[1])
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		hits++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d, %d]: got %d snapshots %+v, reference %d %+v", w[0], w[1], len(got), got, len(want), want)
		}
	}
	if hits < 200 {
		t.Fatalf("only %d of %d windows held a summary", hits, len(windows))
	}
}
