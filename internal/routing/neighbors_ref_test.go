package routing

import (
	"math/rand"
	"slices"
	"testing"

	"scoop/internal/netsim"
)

// refNeighborState is the link estimator's entry as it was before it
// was packed into 16 bytes: int counters, 32 bytes.
type refNeighborState struct {
	lastSeq   uint32
	received  int
	missed    int
	lastHeard netsim.Time
}

func (s *refNeighborState) quality() float64 {
	total := s.received + s.missed
	if total == 0 {
		return 0
	}
	return float64(s.received) / float64(total+2)
}

// refNeighbors is the reference model of NeighborTable: the same rules
// (gap counting capped at 16, windowing past 64, stalest-first eviction
// with ties to the earliest inserted, expiry) over int counters, and
// the top-n list by sorting everything.
type refNeighbors struct {
	cap        int
	evictAfter netsim.Time
	ids        []netsim.NodeID
	entries    []refNeighborState
}

func (t *refNeighbors) observe(id netsim.NodeID, seq uint32, now netsim.Time) {
	i := slices.Index(t.ids, id)
	if i < 0 {
		if len(t.entries) >= t.cap {
			victim := 0
			for k := range t.entries {
				if t.entries[k].lastHeard < t.entries[victim].lastHeard {
					victim = k
				}
			}
			t.ids = slices.Delete(t.ids, victim, victim+1)
			t.entries = slices.Delete(t.entries, victim, victim+1)
		}
		t.ids = append(t.ids, id)
		t.entries = append(t.entries, refNeighborState{lastSeq: seq, received: 1, lastHeard: now})
		return
	}
	s := &t.entries[i]
	if seq > s.lastSeq {
		miss := int(seq-s.lastSeq) - 1
		if miss > 16 {
			miss = 16
		}
		s.missed += miss
		s.lastSeq = seq
	}
	s.received++
	s.lastHeard = now
	if s.received+s.missed > 64 {
		s.received = (s.received + 1) / 2
		s.missed = s.missed / 2
	}
}

func (t *refNeighbors) expire(now netsim.Time) {
	if t.evictAfter <= 0 {
		return
	}
	var ids []netsim.NodeID
	var entries []refNeighborState
	for i, s := range t.entries {
		if now-s.lastHeard <= t.evictAfter {
			ids, entries = append(ids, t.ids[i]), append(entries, s)
		}
	}
	t.ids, t.entries = ids, entries
}

func (t *refNeighbors) quality(id netsim.NodeID) float64 {
	if i := slices.Index(t.ids, id); i >= 0 {
		return t.entries[i].quality()
	}
	return 0
}

func (t *refNeighbors) best(n int) []NeighborInfo {
	var all []NeighborInfo
	for i := range t.entries {
		all = append(all, NeighborInfo{ID: t.ids[i], Quality: t.entries[i].quality()})
	}
	slices.SortFunc(all, func(a, b NeighborInfo) int {
		if best(a, b) {
			return -1
		}
		return 1
	})
	return all[:min(n, len(all))]
}

// TestNeighborTableMatchesReferenceModel drives the 16-byte-entry table
// and the int-field reference through the same in-order, duplicate,
// reordered and long-gap sequence numbers, with evictions and expiries,
// and holds every observable — Len, IDs, Tracked, Contains, Quality,
// Best — bit-equal after every step, and the packed counters to their
// bound.
func TestNeighborTableMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := []int{1, 3, 8, 32}[seed%4]
		evictAfter := []netsim.Time{0, 90 * netsim.Second}[seed/4%2]
		var nt NeighborTable
		nt.init(capacity, evictAfter)
		ref := &refNeighbors{cap: capacity, evictAfter: evictAfter}
		pool := make([]netsim.NodeID, 2*capacity+3) // more senders than rows: evictions
		seq := make([]uint32, len(pool))
		for i := range pool {
			pool[i] = netsim.NodeID(1 + 7*i)
			seq[i] = uint32(r.Intn(1000))
		}
		now := netsim.Time(0)
		for step := 0; step < 3000; step++ {
			now += netsim.Time(r.Intn(4000))
			if r.Intn(40) == 0 {
				now += 100 * netsim.Second // long enough for whole rows to expire
			}
			if r.Intn(25) == 0 {
				nt.Expire(now)
				ref.expire(now)
			} else {
				k := r.Intn(len(pool))
				if r.Intn(3) == 0 {
					k = r.Intn(min(3, len(pool))) // a few chatty senders reach the window
				}
				s := seq[k]
				switch r.Intn(10) {
				case 0: // duplicate
				case 1: // reordered: an older frame arrives late
					s -= uint32(1 + r.Intn(3))
				case 2: // long gap
					seq[k] += uint32(17 + r.Intn(2000))
					s = seq[k]
				case 3: // short gap
					seq[k] += uint32(2 + r.Intn(5))
					s = seq[k]
				default: // in order
					seq[k]++
					s = seq[k]
				}
				nt.Observe(pool[k], s, now)
				ref.observe(pool[k], s, now)
			}

			if nt.Len() != len(ref.ids) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, nt.Len(), len(ref.ids))
			}
			wantIDs := slices.Clone(ref.ids)
			slices.Sort(wantIDs)
			if got := nt.IDs(); !slices.Equal(got, wantIDs) {
				t.Fatalf("seed %d step %d: IDs = %v, reference %v", seed, step, got, wantIDs)
			}
			if !slices.Equal(nt.Tracked(), ref.ids) {
				t.Fatalf("seed %d step %d: Tracked = %v, reference %v", seed, step, nt.Tracked(), ref.ids)
			}
			// Every pool id, tracked or not, and ids never observed
			// (pool ids are 1 mod 7): the index's misses as well as its hits.
			for _, p := range pool {
				for _, id := range []netsim.NodeID{p, p + 1} {
					if got, want := nt.Contains(id), slices.Contains(ref.ids, id); got != want {
						t.Fatalf("seed %d step %d: Contains(%d) = %v, reference %v", seed, step, id, got, want)
					}
					if got, want := nt.Quality(id), ref.quality(id); got != want {
						t.Fatalf("seed %d step %d: Quality(%d) = %v, reference %v", seed, step, id, got, want)
					}
				}
			}
			for _, n := range []int{0, 3, 8, capacity + 2} {
				if got, want := nt.Best(nil, n), ref.best(n); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Best(%d) = %v, reference %v", seed, step, n, got, want)
				}
			}
			for i, s := range nt.entries {
				if s.received > 81 || s.missed > 81 {
					t.Fatalf("seed %d step %d: entry %d counts %d received, %d missed; the window bounds both by 81",
						seed, step, i, s.received, s.missed)
				}
			}
		}
	}
}
