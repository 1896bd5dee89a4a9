package main

import (
	"flag"
	"fmt"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/perfbench"
)

// The isolated metrics (source I) time one call into one layer with no
// simulation around it. They reuse the repo's own micro benches from
// internal/perfbench, run for a fixed iteration count so that every
// traced run pays the same small cost.

// isolated maps a perfbench entry to the metrics read off it.
var isolated = []struct {
	bench  string
	iters  string // -test.benchtime value, full length
	smoke  string // and for -smoke
	timeTo string // metric receiving time per op
	scale  float64
	allocs string // metric receiving allocs per op, "" for none
}{
	// One op is one virtual minute of 1000 nodes broadcasting.
	{"netsim/flood/n1000", "3x", "1x", "netsim.flood_n1000_ms_per_vmin", 1e-6, "netsim.flood_n1000_allocs"},
	// One op is four warm rebuild epochs (three stats-only, one link move).
	{"index/rebuild/n1000", "1x", "1x", "index.rebuild_n1000_ms", 1e-6, "index.rebuild_n1000_allocs"},
	{"core/reply/rel-off", "200000x", "20000x", "core.reply_dup_ns", 1, ""},
	{"trace/emit/ring", "200000x", "20000x", "trace.emit_ring_ns", 1, ""},
}

func (l layers) fromIsolated(smoke bool) error {
	testing.Init() // registers -test.benchtime; a no-op under go test
	byName := make(map[string]func(*testing.B))
	for _, b := range perfbench.Benches() {
		byName[b.Name] = b.Fn
	}
	for _, it := range isolated {
		fn, ok := byName[it.bench]
		if !ok {
			return fmt.Errorf("perfbench has no bench %q", it.bench)
		}
		iters := it.iters
		if smoke {
			iters = it.smoke
		}
		if err := flag.Set("test.benchtime", iters); err != nil {
			return err
		}
		r := testing.Benchmark(fn)
		if r.N == 0 {
			return fmt.Errorf("bench %q failed", it.bench)
		}
		l[it.timeTo] = float64(r.T.Nanoseconds()) / float64(r.N) * it.scale
		if it.allocs != "" {
			l[it.allocs] = float64(r.AllocsPerOp())
		}
	}

	reps := 3
	if smoke {
		reps = 1
	}
	var ms []float64
	for i := 0; i < reps; i++ {
		start := wallNow()
		topo := netsim.GridTopology(1000, 2.5, 7)
		netsim.NewNetwork(netsim.NewSimulator(11), topo, metrics.NewCounters(), netsim.DefaultParams())
		ms = append(ms, float64(wallSince(start).Nanoseconds())/1e6)
	}
	l["netsim.topology_n1000_ms"] = median(ms)
	return nil
}
