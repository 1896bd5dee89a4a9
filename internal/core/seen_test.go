package core

import (
	"math/rand"
	"slices"
	"testing"

	"scoop/internal/dense"
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// refSeen is the dense-row table seenTable used to be, kept as the
// reference model: rows indexed by origin ID and grown to the highest
// origin heard from, so one summary relayed from node 900 costs 900
// rows, each a plain list of every key recorded. Its cost follows the
// network; its answers are the specification.
type refSeen struct {
	rows [][]uint64
}

func (s *refSeen) Seen(origin netsim.NodeID, key uint64) bool {
	i := int(origin)
	s.rows = dense.Grow(s.rows, i)
	if slices.Contains(s.rows[i], key) {
		return true
	}
	s.rows[i] = append(s.rows[i], key)
	return false
}

func (s *refSeen) reset() { s.rows = nil }

// TestSeenMatchesReferenceModel feeds six sparse tables growing in one
// network's blocks, as nodes' do, and a dense reference each the same
// random (origin, key) streams — per-origin keys mostly rising, mixed
// with immediate duplicates, old duplicates, never-seen keys below the
// maximum, key 0, and a reset now and then — and requires the same
// answer from every call. Arrays one table puts back are taken by
// another, so a stale alias would show as a wrong answer; the counts make
// sure out-of-order keys are asked after a table's spill array moved to
// another array, and keys recorded before a reset are asked after it.
func TestSeenMatchesReferenceModel(t *testing.T) {
	type side struct {
		got     seenTable
		want    refSeen
		next    []uint64    // per-origin rising key
		history [][2]uint64 // every (origin, key) asked since the last reset
		before  map[[2]uint64]bool
		moved   bool // the spill array moved since the last reset
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var blocks seenBlocks
		var sides [6]side
		for i := range sides {
			sides[i].next = make([]uint64, 1024)
		}
		origins := 1 + rng.Intn(60)
		var dups, lateFresh, lateAfterMove, afterReset int
		for step := 0; step < 12000; step++ {
			sd := &sides[rng.Intn(len(sides))]
			var origin netsim.NodeID
			var key uint64
			switch p := rng.Intn(100); {
			case p < 1:
				sd.before = map[[2]uint64]bool{}
				for _, h := range sd.history {
					sd.before[h] = true
				}
				sd.got.reset()
				sd.want.reset()
				sd.history, sd.moved = sd.history[:0], false
				continue
			case p < 60 || len(sd.history) == 0: // in order
				origin = netsim.NodeID(rng.Intn(origins) * (1 + rng.Intn(17)) % 1024)
				sd.next[origin] += uint64(rng.Intn(3)) // +0 repeats the last key (or asks key 0 first)
				key = sd.next[origin]
			case p < 75: // link-layer retransmission: the key just asked
				h := sd.history[len(sd.history)-1]
				origin, key = netsim.NodeID(h[0]), h[1]
			case p < 90: // an old duplicate
				h := sd.history[rng.Intn(len(sd.history))]
				origin, key = netsim.NodeID(h[0]), h[1]
			default: // out of order: somewhere below the origin's maximum
				h := sd.history[rng.Intn(len(sd.history))]
				origin, key = netsim.NodeID(h[0]), uint64(rng.Int63n(int64(h[1])+1))
			}
			k := [2]uint64{uint64(origin), key}
			sd.history = append(sd.history, k)
			spill := sd.got.spill
			g, w := sd.got.Seen(&blocks, origin, key), sd.want.Seen(origin, key)
			if g != w {
				t.Fatalf("seed %d step %d: Seen(%d, %d) = %v, reference %v", seed, step, origin, key, g, w)
			}
			if cap(spill) > 0 && (cap(sd.got.spill) != cap(spill) || &sd.got.spill[:1][0] != &spill[:1][0]) {
				sd.moved = true
			}
			switch {
			case w:
				dups++
			case key < sd.next[origin]:
				lateFresh++
				if sd.moved {
					lateAfterMove++
				}
			}
			if sd.before[k] {
				afterReset++
			}
		}
		if dups < 1000 || lateFresh < 40 || lateAfterMove < 10 || afterReset < 10 {
			t.Fatalf("seed %d: %d duplicates, %d fresh out-of-order keys (%d after a spill moved), %d keys asked again after a reset; comparison has no power",
				seed, dups, lateFresh, lateAfterMove, afterReset)
		}
		for _, sd := range sides {
			if !slices.IsSorted(sd.got.rows.ids) || len(sd.got.rows.ids) != len(sd.got.rows.vals) {
				t.Fatalf("seed %d: table holds ids %v for %d rows", seed, sd.got.rows.ids, len(sd.got.rows.vals))
			}
		}
	}
}

// TestSeenRepeatedKeyAllocsZero pins the steady state of the per-delivery
// path: a retransmitted copy from a known origin is recognised without
// allocating, however many origins the table holds; and once the
// network's blocks have grown, a table that is reset and fills again —
// new origins, in-order keys and duplicates — allocates nothing either.
func TestSeenRepeatedKeyAllocsZero(t *testing.T) {
	var blocks seenBlocks
	var s seenTable
	for o := netsim.NodeID(1); o <= 500; o++ {
		for k := uint64(1); k <= 20; k++ {
			s.Seen(&blocks, o*2, k)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !s.Seen(&blocks, 400, 20) || !s.Seen(&blocks, 400, 3) {
			t.Fatal("recorded key not recognised")
		}
	}); allocs != 0 {
		t.Fatalf("Seen of a repeated key allocates %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.reset()
		for o := netsim.NodeID(1); o <= 300; o++ {
			for k := uint64(1); k <= 12; k++ {
				if s.Seen(&blocks, o*3, k) || !s.Seen(&blocks, o*3, k) {
					t.Fatal("a new key read as seen, or a recorded one as new")
				}
			}
		}
	}); allocs != 0 {
		t.Fatalf("refilling a reset table allocates %v times per cycle", allocs)
	}
}

// FuzzSeenTable holds the table to exact set membership over arbitrary
// op streams: Seen answers true exactly when (origin, key) was recorded
// since the last reset, however the keys of an origin arrive —
// repeated, out of order, or an old duplicate long after its row has
// spilled to the older keys. Each op is three bytes: 0xFF resets,
// anything else picks one of 255 origins spread over the ID space, and
// the next two bytes are a 16-bit key, so duplicates are common.
func FuzzSeenTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 1})                           // an immediate duplicate
	f.Add([]byte{1, 0, 5, 1, 0, 3, 1, 0, 5, 1, 0, 3})         // out of order, then both again
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0xFF, 0, 0, 1, 0, 0})      // key 0 from two origins, reset, again
	f.Add([]byte{9, 0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9, 0, 5, // a row spilling past its first array…
		9, 0, 6, 9, 0, 7, 9, 0, 8, 9, 0, 9, 9, 0, 1}) // …then its oldest key again
	f.Fuzz(func(t *testing.T, ops []byte) {
		var blocks seenBlocks
		var s seenTable
		ref := map[netsim.NodeID]map[uint64]bool{}
		for ; len(ops) >= 3; ops = ops[3:] {
			if ops[0] == 0xFF {
				s.reset()
				clear(ref)
				continue
			}
			origin := netsim.NodeID(ops[0]) * 4
			key := uint64(ops[1])<<8 | uint64(ops[2])
			if ref[origin] == nil {
				ref[origin] = map[uint64]bool{}
			}
			want := ref[origin][key]
			ref[origin][key] = true
			if got := s.Seen(&blocks, origin, key); got != want {
				t.Fatalf("Seen(%d, %d) = %v, want %v", origin, key, got, want)
			}
		}
		if !slices.IsSorted(s.rows.ids) || len(s.rows.ids) != len(ref) {
			t.Fatalf("table holds rows %v for %d origins", s.rows.ids, len(ref))
		}
	})
}

// TestDataDedup holds the data-frame dedup of DESIGN.md §7 on node 1 of
// relayFixture, relaying toward node 0 (owner 0) or storing as owner 1.
func TestDataDedup(t *testing.T) {
	type fixture struct {
		sim  *netsim.Simulator
		net  *netsim.Network
		node *Node
		sink *sinkApp
		seq  uint32
	}
	setup := func(t *testing.T) *fixture {
		f := &fixture{}
		f.sim, f.net, f.node, f.sink = relayFixture(t)
		return f
	}
	// deliver hands node 1 one frame from node 2, sent with header hops,
	// carrying rs for owner, and lets the relay go out.
	deliver := func(f *fixture, hops uint8, owner netsim.NodeID, rs ...Reading) {
		f.seq++
		f.node.Receive(&netsim.Packet{Class: metrics.Data, Hops: hops, Src: 2, Dst: 1, Origin: 2, OriginParent: 1,
			Seq: f.seq, Payload: &DataMsg{Readings: rs, Owner: owner, SID: 1}})
		f.sim.Run(f.sim.Now() + netsim.Second)
	}
	r := Reading{Producer: 2, Value: 7, Time: 1000}
	relayed := func(t *testing.T, f *fixture, want int) {
		t.Helper()
		if got := f.sink.got[metrics.Data]; got != want {
			t.Fatalf("node 0 received %d data frames, want %d", got, want)
		}
	}

	t.Run("retransmission", func(t *testing.T) {
		// An ack lost on the link 2 → 1: node 2 sends the same frame
		// again, with the same header hops.
		f := setup(t)
		deliver(f, 2, 0, r)
		deliver(f, 2, 0, r)
		relayed(t, f, 1)
		// A batch holding it and a new reading goes on with the new one.
		s := Reading{Producer: 2, Value: 8, Time: 2000}
		deliver(f, 2, 0, r, s)
		relayed(t, f, 2)
		if got := f.node.regroup; len(got) != 1 || got[0] != s {
			t.Fatalf("relayed readings %v, want [%v]", got, s)
		}
	})

	t.Run("bounce", func(t *testing.T) {
		// Node 1 sent the reading down by rule 5, the child's send
		// failed and it fell back to rule 6, its parent: the copy comes
		// back two hops further on and must be routed again, or no node
		// would hold the reading.
		f := setup(t)
		deliver(f, 2, 0, r)
		deliver(f, 4, 0, r)
		relayed(t, f, 2)
		deliver(f, 4, 0, r) // a retransmission of the bounce
		relayed(t, f, 2)
	})

	t.Run("stored once", func(t *testing.T) {
		f := setup(t)
		deliver(f, 2, 1, r)
		deliver(f, 5, 1, r) // another path: a new hop count, still a copy
		// More readings than the cache holds push r out of it; a late
		// copy is then found in Flash.
		for k := range dataSeenCap {
			deliver(f, 1, 1, Reading{Producer: 3, Value: 7, Time: int64(k)})
		}
		deliver(f, 7, 1, r)
		if n, at := len(f.node.store.buf), f.node.stats.StoredAtOwner; n != dataSeenCap+1 || at != dataSeenCap+1 {
			t.Fatalf("the owner holds %d readings and counts %d stores, want %d", n, at, dataSeenCap+1)
		}
		relayed(t, f, 0)

		// The base, a PC, keeps every stored reading's key.
		tn := newTestNet(t, chainTopo(2, 1), testConfig(), nil, 1)
		tn.base.onData(&DataMsg{Readings: []Reading{r}, Owner: 0})
		for k := range 4 * dataSeenCap {
			tn.base.onData(&DataMsg{Readings: []Reading{{Producer: 3, Value: 7, Time: int64(k)}}, Owner: 0})
		}
		tn.base.onData(&DataMsg{Readings: []Reading{r}, Owner: 0})
		if n := len(tn.base.store.buf); n != 4*dataSeenCap+1 {
			t.Fatalf("the base holds %d readings, want %d", n, 4*dataSeenCap+1)
		}
	})

	t.Run("reboot", func(t *testing.T) {
		// RAM is lost: after a reboot the same copy is routed again.
		f := setup(t)
		deliver(f, 2, 0, r)
		f.net.Restart(1)
		adoptParent(t, f.sim, f.node, 2)
		deliver(f, 2, 0, r)
		relayed(t, f, 2)
	})
}
