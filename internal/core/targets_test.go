package core

import (
	"fmt"
	"testing"

	"scoop/internal/index"
	"scoop/internal/netsim"
	"scoop/internal/workload"
)

// ownersSplit maps values [0,10] to a and [11,20] to b.
func ownersSplit(a, b netsim.NodeID) []netsim.NodeID {
	out := make([]netsim.NodeID, 21)
	for i := range out {
		if i <= 10 {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

// TestTargetsAcrossGenerations drives Base.targets through hand-built
// index history: pre-index windows, the 30s adoption-slack overlap
// between generations, store-local generations, and multi-generation
// owner unions.
func TestTargetsAcrossGenerations(t *testing.T) {
	sec := netsim.Second
	gen1 := index.New(1, 0, ownersSplit(1, 3)) // 0-10 → 1, 11-20 → 3
	gen2 := index.New(2, 0, ownersSplit(2, 4)) // 0-10 → 2, 11-20 → 4
	local := index.NewLocal(3)
	// Values 0..5 → 3 3 2 2 1 3: owner 3 recurs in two entries that are
	// not adjacent.
	recur := index.New(4, 0, []netsim.NodeID{3, 3, 2, 2, 1, 3})

	cases := []struct {
		name    string
		records []indexRecord
		q       workload.Query
		want    []netsim.NodeID
		covered bool
	}{
		{
			name: "no index yet floods all",
			q:    workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 50 * sec, TimeHi: 80 * sec},
			want: []netsim.NodeID{1, 2, 3, 4},
		},
		{
			name:    "window predating the first generation floods all",
			records: []indexRecord{{ix: gen1, at: 100 * sec}},
			q:       workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 50 * sec, TimeHi: 150 * sec},
			want:    []netsim.NodeID{1, 2, 3, 4},
		},
		{
			name:    "single generation, low half of the domain",
			records: []indexRecord{{ix: gen1, at: 100 * sec}},
			q:       workload.Query{ValueLo: 0, ValueHi: 10, TimeLo: 110 * sec, TimeHi: 150 * sec},
			want:    []netsim.NodeID{1},
			covered: true,
		},
		{
			name: "window inside the 30s adoption slack unions both generations",
			records: []indexRecord{
				{ix: gen1, at: 100 * sec},
				{ix: gen2, at: 200 * sec},
			},
			// Gen2 active, but data placed up to 230s may still follow
			// gen1 on laggard nodes.
			q:       workload.Query{ValueLo: 0, ValueHi: 10, TimeLo: 210 * sec, TimeHi: 225 * sec},
			want:    []netsim.NodeID{1, 2},
			covered: true,
		},
		{
			name: "window past the slack uses only the newer generation",
			records: []indexRecord{
				{ix: gen1, at: 100 * sec},
				{ix: gen2, at: 200 * sec},
			},
			q:       workload.Query{ValueLo: 0, ValueHi: 10, TimeLo: 240 * sec, TimeHi: 300 * sec},
			want:    []netsim.NodeID{2},
			covered: true,
		},
		{
			name: "store-local generation in range floods all",
			records: []indexRecord{
				{ix: gen1, at: 100 * sec},
				{ix: local, at: 200 * sec},
			},
			q:    workload.Query{ValueLo: 0, ValueHi: 10, TimeLo: 240 * sec, TimeHi: 300 * sec},
			want: []netsim.NodeID{1, 2, 3, 4},
		},
		{
			name: "store-local generation out of range is ignored",
			records: []indexRecord{
				{ix: gen1, at: 100 * sec},
				{ix: local, at: 200 * sec},
			},
			q:       workload.Query{ValueLo: 0, ValueHi: 10, TimeLo: 110 * sec, TimeHi: 150 * sec},
			want:    []netsim.NodeID{1},
			covered: true,
		},
		{
			name:    "an owner recurring non-contiguously is listed once",
			records: []indexRecord{{ix: recur, at: 100 * sec}},
			q:       workload.Query{ValueLo: 1, ValueHi: 5, TimeLo: 110 * sec, TimeHi: 150 * sec},
			want:    []netsim.NodeID{1, 2, 3},
			covered: true,
		},
		{
			name:    "a range outside the domain has no owner",
			records: []indexRecord{{ix: recur, at: 100 * sec}},
			q:       workload.Query{ValueLo: 100, ValueHi: 200, TimeLo: 110 * sec, TimeHi: 150 * sec},
			want:    []netsim.NodeID{},
			covered: true,
		},
		{
			name: "multi-generation, whole-domain union",
			records: []indexRecord{
				{ix: gen1, at: 100 * sec},
				{ix: gen2, at: 200 * sec},
			},
			q:       workload.Query{ValueLo: 0, ValueHi: 20, TimeLo: 110 * sec, TimeHi: 300 * sec},
			want:    []netsim.NodeID{1, 2, 3, 4},
			covered: true,
		},
	}

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, int64(40+i))
			tn.base.records = c.records
			got := tn.base.targets(c.q)
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("targets = %v, want %v", got, c.want)
			}
			_, covered := tn.base.rangeTargets(c.q.ValueLo, c.q.ValueHi, c.q.TimeLo, c.q.TimeHi)
			if covered != c.covered {
				t.Fatalf("covered = %v, want %v", covered, c.covered)
			}
		})
	}

	// Node-list queries bypass generation resolution entirely.
	tn := newTestNet(t, meshTopo(5, 0.95), testConfig(), nil, 60)
	got := tn.base.targets(workload.Query{Nodes: []netsim.NodeID{3, 1}})
	if fmt.Sprint(got) != "[3 1]" {
		t.Fatalf("node query targets = %v", got)
	}
}
