package scoop

// Scale-tier hot-path benchmarks: internal/perfbench's micro benches
// (four of which bench/ times for its isolated per-layer metrics),
// exposed to `go test -bench` so local work gets ns/op and allocs/op
// feedback without a benchmark run.
//
//	go test -bench 'HotPaths' -benchtime 1x .

import (
	"testing"

	"scoop/internal/perfbench"
)

func BenchmarkHotPaths(b *testing.B) {
	for _, be := range perfbench.Benches() {
		b.Run(be.Name, be.Fn)
	}
}
