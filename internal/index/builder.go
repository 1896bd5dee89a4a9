package index

import (
	"math"
	"slices"
	"time"

	"scoop/internal/netsim"
	"scoop/internal/trace"
)

// BuildStats is the wall-clock probe of one index rebuild, which the
// basestation sums into core.RunStats.ReindexWallNanos for sweeps and
// perf tooling. Every rebuild recomputes every value and solves every
// source, so it carries no work counters.
type BuildStats struct {
	WallNanos int64 // wall-clock cost of the rebuild
}

// rowBatch is how many contributors' xmits rows one rebuild holds at a
// time: 256 KB at N = 1000, where the whole matrix would be 8 MB.
const rowBatch = 32

// Builder is the basestation's reusable index-construction pipeline.
// The sparse adjacency, the contributor table, a batch of xmits rows
// and the V×N per-value cost accumulator are scratch buffers that
// survive across rebuilds, so a steady-state reindex allocates almost
// nothing. The N×N xmits matrix is never held: the largest buffer is
// the accumulator, N² costs only when the domain is as large as the
// network (UNIQUE).
//
// The zero value is ready to use. A Builder must not be shared between
// goroutines.
type Builder struct {
	// Trace, when non-nil, receives ReindexBegin/ReindexEnd events
	// for every BuildOwners call. The wall-clock probe in BuildStats
	// never enters the trace (DESIGN.md §16): ReindexEnd carries only
	// the value-domain size.
	Trace *trace.Recorder

	adj     csr
	ct      contribTable
	workers []spWorker // per-worker Dijkstra heap and distance row

	cidx    []int32   // node → its position in contrib, or -1
	contrib []int32   // nodes that produce some value, ascending
	others  []int32   // every other node
	baseRow []float64 // xmits(base→o)
	rt      []float64 // xmits(o→base), then the round trip base→o→base
	rows    []float64 // one batch of contributors' xmits rows, n apart
	cursor  []int32   // per value: its next contributor entry to fold
	acc     []float64 // cost of value vi at owner o in acc[vi*n+o]
	owners  []netsim.NodeID

	stats BuildStats
}

// LastStats reports what the most recent rebuild did.
func (b *Builder) LastStats() BuildStats { return b.stats }

// Build runs the pipeline and compacts the result into an Index.
func (b *Builder) Build(id uint16, in *BuildInput) *Index {
	return New(id, in.MinValue, b.BuildOwners(in))
}

// BuildOwners runs the paper's indexing algorithm (Figure 2): for every
// value v in the domain, try every node o (the basestation included) as
// owner and keep the cheapest, where
//
//	cost(o,v) = Σ_p P(p produces v)·rate_p·xmits(p→o)
//	          + P(user queries v)·queryRate·xmits(base→o→base)
//
// and the query term is absent for o = base. Exact ties break toward
// the base, then the lower node ID; the contiguity pass then lets the
// previous value's owner keep v within contiguityTolerance, so results
// are deterministic and compact.
//
// Only three kinds of xmits row are needed: the base's, each
// contributor's, and xmits(o→base) for every other o. The contributors'
// rows are solved in ascending producer order, a batch at a time, and
// each batch is folded into the per-value accumulator before the next
// is solved; every other node's Dijkstra stops once the base pops. Each
// accumulator entry sums its terms in ascending producer order with the
// query term last, the order of the naive scan, so the owners are the
// ones that scan computes from the full matrix bit for bit.
//
// The returned slice is builder-owned scratch, invalidated by the next
// call.
func (b *Builder) BuildOwners(in *BuildInput) []netsim.NodeID {
	start := time.Now() //scoop:allow walltime BuildStats wall probe, json:"-" everywhere — never enters artifacts (DESIGN.md §14)
	n, V, base := in.N, in.domainSize(), int(in.Base)
	b.Trace.Emit(trace.Event{Kind: trace.ReindexBegin, Node: uint16(in.Base), Value: int64(V)})

	b.adj.build(in.Graph)
	b.ct.build(in)
	ct := &b.ct

	// Split the nodes into contributors and the rest. Per-worker
	// scratch is sized serially, before any fan-out.
	b.cidx = resize(b.cidx, n)
	for p := range b.cidx {
		b.cidx[p] = -1
	}
	for _, p := range ct.prods {
		b.cidx[p] = 0
	}
	b.contrib, b.others = b.contrib[:0], b.others[:0]
	for p := range b.cidx {
		if b.cidx[p] < 0 {
			b.others = append(b.others, int32(p))
			continue
		}
		b.cidx[p] = int32(len(b.contrib))
		b.contrib = append(b.contrib, int32(p))
	}
	maxW := maxWorkers()
	if len(b.workers) < maxW {
		b.workers = append(b.workers, make([]spWorker, maxW-len(b.workers))...)
	}
	for w := range b.workers {
		b.workers[w].row = resize(b.workers[w].row, n)
	}
	b.baseRow, b.rt = resize(b.baseRow, n), resize(b.rt, n)
	b.rows = resize(b.rows, min(rowBatch, len(b.contrib))*n)
	b.acc = resize(b.acc, V*n)
	clear(b.acc)
	b.cursor = append(b.cursor[:0], ct.off[:V]...)

	// 1. The base's row, serially.
	dijkstra(&b.adj, int32(base), b.baseRow, &b.workers[0].heap, -1)

	// 2. One fork-join for the rest. Each worker solves its share of
	// the non-contributors (each search stopping when the base pops, for
	// xmits(o→base)), then steps through the contributors' batches with
	// the others: it solves its share of the batch's rows, waits until
	// every row is solved, folds its share of the values, and waits
	// again before the next batch overwrites the rows. parallelFor gives
	// each of maxW goroutines one share [w, w+1), or runs one call with
	// all of them inline, which needs no waits.
	// Roughly E + n per Dijkstra source and n per folded entry.
	work := n*(len(b.adj.to)+n) + len(ct.prods)*n
	bar := newBarrier(maxW)
	parallelFor(maxW, maxW, work, func(worker, a, z int) {
		share := func(items int) (int, int) { return a * items / maxW, z * items / maxW }
		wait := func() {
			if z-a < maxW {
				bar.wait()
			}
		}
		w := &b.workers[worker]
		lo, hi := share(len(b.others))
		for _, o := range b.others[lo:hi] {
			dijkstra(&b.adj, o, w.row, &w.heap, int32(base))
			b.rt[o] = w.row[base]
		}
		for first := 0; first < len(b.contrib); first += rowBatch {
			srcs := b.contrib[first:min(first+rowBatch, len(b.contrib))]
			lo, hi := share(len(srcs))
			for k := lo; k < hi; k++ {
				row := b.rows[k*n : (k+1)*n]
				dijkstra(&b.adj, srcs[k], row, &w.heap, -1)
				b.rt[srcs[k]] = row[base]
			}
			wait()
			last := srcs[len(srcs)-1]
			lo, hi = share(V)
			for vi := lo; vi < hi; vi++ {
				costs := b.acc[vi*n : (vi+1)*n]
				e := b.cursor[vi]
				for ; e < ct.off[vi+1] && ct.prods[e] <= last; e++ {
					k := int(b.cidx[ct.prods[e]]) - first
					wt := ct.weights[e]
					// xmits(p→p) is exactly 0, so a producer storing its
					// own value adds wt·0, a floating-point no-op.
					for o, x := range b.rows[k*n : (k+1)*n] {
						if x >= Inf {
							costs[o] = math.Inf(1)
						} else {
							costs[o] += wt * x
						}
					}
				}
				b.cursor[vi] = e
			}
			wait()
		}
	})
	for o := range b.rt {
		b.rt[o] += b.baseRow[o]
	}

	// 3. Per value, serially: the query term, the argmin, and the
	// contiguity pass (paper §5.3 range compaction), which couples value
	// i to value i-1's owner.
	b.owners = resize(b.owners, V)
	qrate := in.Query.Rate
	prev := netsim.NodeID(0)
	for vi := 0; vi < V; vi++ {
		costs := b.acc[vi*n : (vi+1)*n]
		if p := in.Query.ProbOf(in.MinValue + vi); p > 0 && qrate > 0 {
			f := p * qrate
			for o, rt := range b.rt {
				if o == base {
					continue
				}
				if rt >= Inf {
					costs[o] = math.Inf(1)
				} else {
					costs[o] += f * rt
				}
			}
		}
		at := func(o int) float64 { return min(costs[o], Inf) }
		best, bestCost := base, at(base)
		for o := range costs {
			if c := at(o); o != base && c < bestCost {
				best, bestCost = o, c
			}
		}
		if vi > 0 && int(prev) != best && at(int(prev)) <= bestCost*(1+contiguityTolerance) {
			best = int(prev)
		}
		b.owners[vi] = netsim.NodeID(best)
		prev = b.owners[vi]
	}

	b.stats.WallNanos = time.Since(start).Nanoseconds() //scoop:allow walltime BuildStats wall probe, json:"-" everywhere — never enters artifacts (DESIGN.md §14)
	b.Trace.Emit(trace.Event{Kind: trace.ReindexEnd, Node: uint16(in.Base), Size: int32(V)})
	return b.owners
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
