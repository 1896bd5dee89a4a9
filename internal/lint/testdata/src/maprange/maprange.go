// Package maprange is a scooplint fixture: the harness loads it with
// the deterministic-package flag forced on and checks the maprange
// analyzer's findings against the want comments line by line.
package maprange

import "sort"

// seed returns something map-order-dependent: the first key Go's
// randomized iteration happens to yield.
func seed(m map[int]int) int {
	for k := range m { // want `map iteration order is randomized`
		return k
	}
	return 0
}

// values feeds map-ordered values into a slice — classic violation.
func values(m map[int]float64) []float64 {
	var out []float64
	for _, v := range m { // want `map iteration order is randomized`
		out = append(out, v)
	}
	return out
}

// sortedKeys is the blessed idiom: the body only collects keys, which
// are then sorted before use.
func sortedKeys(m map[int]float64) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// filteredKeys collects keys behind a call-free condition — still
// provably order-independent.
func filteredKeys(m map[int]int, want int) []int {
	var ks []int
	for k, v := range m {
		if v == want {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

// clearAll deletes every key from the ranged map itself — clearing is
// order-independent.
func clearAll(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

// filteredCall guards the append with a condition that calls a
// function: no longer provably pure, so it is flagged.
func filteredCall(m map[int]int) []int {
	var ks []int
	for k, v := range m { // want `map iteration order is randomized`
		if expensive(v) {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

func expensive(v int) bool { return v > 0 }

// counted is order-independent in fact (integer count) but not in any
// form the analyzer proves, so it carries a reviewed allow.
func counted(m map[int]int) int {
	n := 0
	//scoop:allow maprange integer count is order-independent
	for range m {
		n++
	}
	return n
}

// slices and channels are never flagged.
func overSlice(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}
