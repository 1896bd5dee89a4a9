package dense

import "testing"

// TestGrow holds Grow to its contract: s back as it is when index i is
// already valid, else extended with zero values to exactly i+1
// elements, in place while the array has room and in a new one of
// about 1.5 × i otherwise, the elements kept.
func TestGrow(t *testing.T) {
	for _, c := range []struct {
		name            string
		s               []int
		i               int
		wantLen, minCap int
		same            bool // the same array comes back
	}{
		{name: "below len", s: []int{1, 2, 3}, i: 1, wantLen: 3, minCap: 3, same: true},
		{name: "at len, within cap", s: make([]int, 2, 8), i: 2, wantLen: 3, minCap: 8, same: true},
		{name: "at cap", s: make([]int, 4), i: 4, wantLen: 5, minCap: 7},
		{name: "far past cap", s: []int{1, 2}, i: 1000, wantLen: 1001, minCap: 1500},
		{name: "nil", s: nil, i: 0, wantLen: 1, minCap: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for k := range c.s {
				c.s[k] = k + 1
			}
			before := append([]int(nil), c.s...)
			// Dirty the spare capacity: Grow must zero what it exposes.
			if spare := c.s[len(c.s):cap(c.s)]; len(spare) > 0 {
				for k := range spare {
					spare[k] = -1
				}
			}
			got := Grow(c.s, c.i)
			if len(got) != c.wantLen || cap(got) < c.minCap {
				t.Fatalf("Grow(len %d cap %d, %d): len %d cap %d, want len %d cap ≥ %d",
					len(c.s), cap(c.s), c.i, len(got), cap(got), c.wantLen, c.minCap)
			}
			if same := cap(c.s) > 0 && &got[0] == &c.s[:1][0]; same != c.same {
				t.Fatalf("the same array came back: %v, want %v", same, c.same)
			}
			for k, v := range got {
				want := 0 // the zero fill
				if k < len(before) {
					want = before[k]
				}
				if v != want {
					t.Fatalf("element %d = %d, want %d", k, v, want)
				}
			}
		})
	}
}
