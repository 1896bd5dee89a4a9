// Package floatfold is a scooplint fixture: the planner's summary-pick
// bug class — floating-point folds whose accumulator survives a
// map-range loop. Loaded without the deterministic flag: the rule is
// module-wide because any package can corrupt artifacts this way.
package floatfold

import "sort"

type stats struct{ total float64 }

// sum is the shipped bug, verbatim in shape: summing float mass over
// a randomly-ordered map flips the result's last bits between runs.
func sum(m map[uint16]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want `floating-point accumulation`
	}
	return s
}

// expanded spells the fold as x = x + v; same defect.
func expanded(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `floating-point accumulation`
	}
	return total
}

// product folds multiplicatively — also non-associative in floats.
func product(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want `floating-point accumulation`
	}
	return p
}

// fields and elements escape too, not just plain locals.
func intoField(m map[int]float64, st *stats) {
	for _, v := range m {
		st.total += v // want `floating-point accumulation`
	}
}

func intoSlice(m map[int]float64, acc []float64) {
	for k, v := range m {
		acc[k%len(acc)] += v // want `floating-point accumulation`
	}
}

// intSum is exact integer arithmetic: commutative, associative,
// order-free. Never flagged.
func intSum(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// perEntry accumulates into a variable scoped inside the map range:
// it resets every iteration, so no fold crosses the map's order.
func perEntry(m map[int][]float64) []float64 {
	var outs []float64
	for _, vs := range m { // (maprange would flag this; floatfold must not)
		s := 0.0
		for _, v := range vs {
			s += v
		}
		outs = append(outs, s)
	}
	return outs
}

// sortedFold is the fix for sum: iterate sorted keys, then the fold
// order is deterministic. Range is over a slice, so nothing fires.
func sortedFold(m map[int]float64) float64 {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var s float64
	for _, k := range ks {
		s += m[k]
	}
	return s
}

// allowed shows the reviewed escape hatch: counting by 1.0 is exact
// in float64 (no rounding below 2^53), hence order-free — which the
// analyzer cannot prove on its own.
func allowed(m map[int]float64) float64 {
	n := 0.0
	for range m {
		n += 1 //scoop:allow floatfold counting by 1.0 is exact in float64, order-free
	}
	return n
}
