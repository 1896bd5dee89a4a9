package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"scoop/internal/netsim"
)

// checkBitmap holds every read of b to the set model m.
func checkBitmap(t *testing.T, b *Bitmap, m map[netsim.NodeID]bool) {
	t.Helper()
	var want []netsim.NodeID
	for id := range m {
		want = append(want, id)
	}
	slices.Sort(want)
	if b.Count() != len(want) || b.Empty() != (len(want) == 0) {
		t.Fatalf("Count() = %d, Empty() = %v for %d marked nodes", b.Count(), b.Empty(), len(want))
	}
	for id := netsim.NodeID(0); id < netsim.MaxNodes+64; id++ {
		if b.Has(id) != m[id] {
			t.Fatalf("Has(%d) = %v, want %v", id, b.Has(id), m[id])
		}
	}
	// The paper's 16-byte field, then a byte per 8 nodes up to the highest.
	bytes := 16
	if len(want) > 0 {
		bytes = max(16, int(want[len(want)-1])/8+1)
	}
	if b.Bytes() != bytes {
		t.Fatalf("Bytes() = %d with highest node %v, want %d", b.Bytes(), want, bytes)
	}
}

// FuzzBitmap drives two query bitmaps through a sequence of Set, Or and
// AndNot operations — each three bytes: the operation and its operands,
// then a node id — against a map model, checking Has, Count,
// Bytes, Intersects and Empty after every step.
func FuzzBitmap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0, 1, 127, 0, 2, 0, 0, 4, 0, 0}) // set 7 in a, 127 in b, or, andnot
	f.Add([]byte{0, 200, 3, 1, 64, 0, 3, 0, 0, 0x84, 0, 0})
	f.Add([]byte{0, 63, 0, 0, 64, 0, 0, 128, 0, 1, 129, 0, 5, 0, 0, 2, 0, 0, 0x82, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var bm [2]Bitmap
		model := [2]map[netsim.NodeID]bool{{}, {}}
		for ; len(ops) >= 3; ops = ops[3:] {
			op := ops[0]
			id := netsim.NodeID(binary.LittleEndian.Uint16(ops[1:3]) % netsim.MaxNodes)
			a, b := int(op&1), int(op&1)^1
			if op&0x80 != 0 {
				b = a // an operand may be the bitmap itself
			}
			switch (op >> 1) & 3 {
			case 0, 3:
				bm[a].Set(id)
				model[a][id] = true
			case 1:
				bm[a].Or(&bm[b])
				for k := range model[b] {
					model[a][k] = true
				}
			case 2:
				bm[a] = bm[a].AndNot(&bm[b])
				for k := range model[b] {
					delete(model[a], k)
				}
			}
			checkBitmap(t, &bm[0], model[0])
			checkBitmap(t, &bm[1], model[1])
			shared := false
			for k := range model[0] {
				shared = shared || model[1][k]
			}
			if bm[0].Intersects(&bm[1]) != shared || bm[1].Intersects(&bm[0]) != shared {
				t.Fatalf("Intersects = %v/%v, want %v", bm[0].Intersects(&bm[1]), bm[1].Intersects(&bm[0]), shared)
			}
		}
	})
}
