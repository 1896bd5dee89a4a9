package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"time"

	"scoop/internal/core"
	"scoop/internal/exp"
	"scoop/internal/sweep"
)

// The benchmark measures host time, so it reads the wall clock — which
// scooplint bans everywhere but the simulator's accounting packages. Every
// read goes through these two functions, so the allow-list has two
// entries. Nothing read here feeds a simulation.
func wallNow() time.Time { return time.Now() } //scoop:allow walltime the benchmark times the simulator from outside

func wallSince(t time.Time) time.Duration {
	return time.Since(t) //scoop:allow walltime the benchmark times the simulator from outside
}

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here reads the same as one computed by a driver in Python.
// With fewer than two samples both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (p in [0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// supportedPercentile returns the highest of the usual reporting
// percentiles that still has at least ten samples beyond it in a sample
// of size n, or 0 when not even the median qualifies.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// summary is one metric's distribution over repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Unit: unit, Values: xs, Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// digester hashes the simulated-time outcome of a unit of work. Only
// deterministic statistics enter it, so two runs of one seed — on any
// machine, engine or instrumentation setting — must agree bit for bit.
type digester struct{ parts []any }

// addTrial folds one trial's RunStats counters and message breakdown in.
// Every exported int64 counter of RunStats takes part except
// ReindexWallNanos, the one wall-clock field.
func (d *digester) addTrial(tr exp.TrialResult) {
	d.parts = append(d.parts, statCounters(tr.Stats), tr.Breakdown)
}

// addCells folds a sweep report's cells in; their JSON form already
// excludes wall-clock fields.
func (d *digester) addCells(cells []sweep.CellResult) {
	d.parts = append(d.parts, cells)
}

func (d *digester) sum() string {
	b, err := json.Marshal(d.parts)
	if err != nil {
		panic(err) // plain numbers and strings only
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

func statCounters(s core.RunStats) map[string]int64 {
	out := make(map[string]int64)
	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 || f.Name == "ReindexWallNanos" {
			continue
		}
		out[f.Name] = v.Field(i).Int()
	}
	return out
}
