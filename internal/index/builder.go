package index

import (
	"slices"
	"time"

	"scoop/internal/netsim"
	"scoop/internal/trace"
)

// BuildStats describes what one index rebuild actually did — the
// probe the basestation surfaces through core.RunStats so sweeps and
// perf tooling can report reindex cost.
type BuildStats struct {
	Values      int   // value-domain size of the build
	Recomputed  int   // values whose best-owner search re-ran
	SPTSources  int   // Dijkstra sources relaxed (0: link graph unchanged)
	Edges       int   // usable links in the sparse adjacency
	FullRebuild bool  // no usable previous state (or caller-provided xmits)
	WallNanos   int64 // wall-clock cost of the rebuild
}

// Builder is the basestation's reusable index-construction pipeline:
// the sparse shortest-path solver, the contributor tables and the
// per-value best-owner cache all live in scratch buffers that survive
// across rebuilds, so a steady-state reindex allocates (almost)
// nothing and recomputes only what changed.
//
// Between rebuilds the Builder tracks dirty values: a value's
// best-owner search re-runs only when its contributor weights, its
// query-profile entry, the query round-trip table, or the xmits row of
// one of its contributors changed at all, so the incremental result is
// bit-identical to a from-scratch BuildOwners — the property
// TestBuilderMatchesScratch pins. The sequential contiguity pass
// (which couples value i to value i-1's owner) always re-runs over the
// whole domain; only the parallelizable argmin search is skipped.
//
// The zero value is ready to use. A Builder must not be shared between
// goroutines.
type Builder struct {
	// Trace, when non-nil, receives ReindexBegin/ReindexEnd events
	// for every BuildOwners call. The wall-clock probe in BuildStats
	// never enters the trace (DESIGN.md §16): ReindexEnd carries only
	// the deterministic counters (Values, Recomputed, SPTSources,
	// FullRebuild).
	Trace *trace.Recorder

	// Sparse shortest-path state. The adjacency is double-buffered so an
	// unchanged link graph skips the pass; the xmits matrix is not: a
	// row is solved into worker scratch and compared before it is
	// copied in (solveAllPairs), which is what rowChanged records.
	adj      [2]csr
	cur      int // index of the adjacency of the latest xmits
	xmits    xbuf
	workers  []spWorker
	haveAdj  bool // adj[cur] holds the previous build's graph
	external bool // last build used caller-provided xmits (no CSR state)

	// Cost-model state, double-buffered for dirty diffing.
	cts   [2]contribTable
	qprob [2][]float64
	qrate [2]float64
	rt    [2][]float64 // RoundTrip(base, o) per candidate owner

	// Per-value cache: the argmin owner and its cost from the last
	// build (pre-contiguity), and the final owner assignment.
	best     []netsim.NodeID
	bestCost []float64
	owners   []netsim.NodeID

	prevValid bool
	prevN     int
	prevBase  netsim.NodeID
	prevMin   int
	prevMax   int

	// Rebuild scratch.
	rowChanged []bool
	dirtyIdx   []int32
	costsW     [][]float64 // per-worker cost accumulators
	infsW      [][]bool    // per-worker unreachability flags
	ctFlip     int         // which cost-model buffer is current

	stats BuildStats
}

// LastStats reports what the most recent rebuild did.
func (b *Builder) LastStats() BuildStats { return b.stats }

// Build runs the incremental pipeline and compacts the result into an
// Index. in.Xmits may be nil when in.Graph is set; the builder then
// computes the matrix itself (and fills in.Xmits for the caller's
// follow-up cost evaluations).
func (b *Builder) Build(id uint16, in *BuildInput) *Index {
	return New(id, in.MinValue, b.BuildOwners(in))
}

// BuildOwners runs the paper's indexing algorithm: for every value in
// the domain, try every node (the basestation included) as owner and
// keep the cheapest; exact ties break toward the previous value's owner,
// then toward the lower node ID, so results are deterministic and
// compact. Only dirty values are recomputed when previous state is
// compatible. The returned slice is builder-owned scratch, invalidated
// by the next call.
func (b *Builder) BuildOwners(in *BuildInput) []netsim.NodeID {
	start := time.Now() //scoop:allow walltime BuildStats wall probe, json:"-" everywhere — never enters artifacts (DESIGN.md §14)
	n := in.N
	V := in.domainSize()
	b.stats = BuildStats{Values: V}
	b.Trace.Emit(trace.Event{Kind: trace.ReindexBegin, Node: uint16(in.Base), Value: int64(V)})

	full := !b.prevValid || b.prevN != n || b.prevBase != in.Base ||
		b.prevMin != in.MinValue || b.prevMax != in.MaxValue

	// 1. Shortest paths. Caller-provided matrices bypass the sparse
	// solver entirely (one-shot use from tests and the analytical
	// policies); row history is then unusable, so everything dirties.
	rowsChangedAny := false
	if in.Xmits == nil && in.Graph == nil {
		panic("index: BuildInput needs either Xmits or Graph")
	}
	if in.Xmits != nil {
		full = true
		b.external = true
		b.haveAdj = false
	} else {
		if b.external {
			full = true
			b.external = false
		}
		next := 1 - b.cur
		b.adj[next].build(in.Graph)
		b.stats.Edges = len(b.adj[next].to)
		// An unchanged link graph leaves the matrix exact: every xmits
		// row is clean, no SPT work.
		if full || !b.haveAdj || !b.adj[next].equal(&b.adj[b.cur]) {
			b.xmits.ensure(n)
			var changed []bool
			if !full {
				b.rowChanged = slices.Grow(b.rowChanged[:0], n)[:n]
				changed = b.rowChanged
			}
			rowsChangedAny = solveAllPairs(&b.adj[next], b.xmits.rows, changed, &b.workers)
			b.stats.SPTSources = n
			b.cur = next
		}
		b.haveAdj = true
		in.Xmits = b.xmits.rows
	}

	// 2. Cost-model inputs: contributor table, query profile, query
	// round trips — all double-buffered for the dirty diff.
	b.swapCostModel(in, n, V)

	// 3. Dirty set. A topology-scale change — more than half the
	// domain dirty — is promoted to a full rebuild: the bookkeeping
	// buys nothing and the result is identical either way.
	b.dirtyIdx = b.dirtyIdx[:0]
	if !full {
		b.collectDirty(V, rowsChangedAny)
		if 2*len(b.dirtyIdx) > V {
			full = true
			b.dirtyIdx = b.dirtyIdx[:0]
		}
	}
	if full {
		for i := 0; i < V; i++ {
			b.dirtyIdx = append(b.dirtyIdx, int32(i))
		}
	}
	b.stats.FullRebuild = full
	b.stats.Recomputed = len(b.dirtyIdx)

	// 4. Parallel per-value best-owner search over the dirty set.
	if cap(b.best) < V {
		b.best = make([]netsim.NodeID, V)
		b.bestCost = make([]float64, V)
		b.owners = make([]netsim.NodeID, V)
	}
	b.best, b.bestCost, b.owners = b.best[:V], b.bestCost[:V], b.owners[:V]
	b.argminDirty(in, n)

	// 5. Sequential contiguity pass (paper §5.3 range compaction).
	ct := &b.cts[b.ctCur()]
	prev := netsim.NodeID(0)
	hasPrev := false
	for i := 0; i < V; i++ {
		best, bestCost := b.best[i], b.bestCost[i]
		if hasPrev && prev != best {
			if c := ct.cost(in, prev, i); c <= bestCost*(1+contiguityTolerance) {
				best = prev
			}
		}
		b.owners[i] = best
		prev, hasPrev = best, true
	}

	b.prevValid, b.prevN, b.prevBase = true, n, in.Base
	b.prevMin, b.prevMax = in.MinValue, in.MaxValue
	b.stats.WallNanos = time.Since(start).Nanoseconds() //scoop:allow walltime BuildStats wall probe, json:"-" everywhere — never enters artifacts (DESIGN.md §14)
	if b.Trace != nil {
		flag := uint8(0)
		if full {
			flag = 1
		}
		b.Trace.Emit(trace.Event{Kind: trace.ReindexEnd, Node: uint16(in.Base), Flag: flag,
			Size: int32(V), Value: int64(b.stats.Recomputed), Aux: int64(b.stats.SPTSources)})
	}
	return b.owners
}

// swapCostModel rebuilds the contributor table, query-probability row
// and round-trip table into the spare buffers, making the previous
// build's versions available for the dirty diff.
func (b *Builder) swapCostModel(in *BuildInput, n, V int) {
	k := b.ctCur() ^ 1
	b.cts[k].build(in)
	if cap(b.qprob[k]) < V {
		b.qprob[k] = make([]float64, V)
	}
	b.qprob[k] = b.qprob[k][:V]
	for i := 0; i < V; i++ {
		b.qprob[k][i] = in.Query.ProbOf(in.MinValue + i)
	}
	b.qrate[k] = in.Query.Rate
	if cap(b.rt[k]) < n {
		b.rt[k] = make([]float64, n)
	}
	b.rt[k] = b.rt[k][:n]
	for o := 0; o < n; o++ {
		b.rt[k][o] = RoundTrip(in.Xmits, in.Base, netsim.NodeID(o))
	}
	b.ctFlip ^= 1
}

// collectDirty appends every value whose cost inputs changed since the
// previous build. rtAll short-circuits the per-owner round-trip check:
// the argmin scans every candidate owner, so any changed round trip
// dirties every queried value.
func (b *Builder) collectDirty(V int, rowsChangedAny bool) {
	k := b.ctCur()
	cur, old := &b.cts[k], &b.cts[k^1]
	qp, qpOld := b.qprob[k], b.qprob[k^1]
	rateChanged := differ(b.qrate[k], b.qrate[k^1])
	rtChanged := false
	if len(b.rt[k]) != len(b.rt[k^1]) {
		rtChanged = true
	} else {
		for o := range b.rt[k] {
			if differ(b.rt[k][o], b.rt[k^1][o]) {
				rtChanged = true
				break
			}
		}
	}
	for i := 0; i < V; i++ {
		if b.valueDirty(i, cur, old, qp, qpOld, rateChanged, rtChanged, rowsChangedAny) {
			b.dirtyIdx = append(b.dirtyIdx, int32(i))
		}
	}
}

func (b *Builder) valueDirty(i int, cur, old *contribTable, qp, qpOld []float64,
	rateChanged, rtChanged, rowsChangedAny bool) bool {
	// Query-profile entry changed (including appearing/disappearing).
	if differ(qp[i], qpOld[i]) {
		return true
	}
	queried := qp[i] > 0 && b.qrate[b.ctCur()] > 0
	if queried && (rateChanged || rtChanged) {
		return true
	}
	if !queried && rateChanged && qp[i] > 0 {
		// Rate flipped between zero and non-zero: the query term
		// appeared or vanished.
		return true
	}
	// Contributor list or weights changed.
	clo, chi := cur.off[i], cur.off[i+1]
	olo, ohi := old.off[i], old.off[i+1]
	if chi-clo != ohi-olo {
		return true
	}
	for k := int32(0); k < chi-clo; k++ {
		if cur.prods[clo+k] != old.prods[olo+k] ||
			differ(cur.weights[clo+k], old.weights[olo+k]) {
			return true
		}
	}
	// A contributor's xmits row changed: its term moves for some owner.
	if rowsChangedAny {
		for k := clo; k < chi; k++ {
			if b.rowChanged[cur.prods[k]] {
				return true
			}
		}
	}
	return false
}

// argminDirty runs the per-value best-owner search for every dirty
// value, fanned out across the worker pool. For each value the cost of
// all candidate owners accumulates simultaneously (one contiguous
// xmits row per contributor), which both vectorises well and preserves
// the exact floating-point accumulation order of the scalar
// contribTable.cost: contributors in ascending producer order, query
// term last.
func (b *Builder) argminDirty(in *BuildInput, n int) {
	dirty := b.dirtyIdx
	if len(dirty) == 0 {
		return
	}
	k := b.ctCur()
	ct := &b.cts[k]
	qp, qrate, rt := b.qprob[k], b.qrate[k], b.rt[k]
	rows := in.Xmits
	base := int(in.Base)

	avgContribs := 1 + len(ct.prods)/b.stats.Values
	work := len(dirty) * n * (1 + avgContribs)
	// Per-worker scratch is sized serially, before the fan-out.
	maxW := maxWorkers()
	for len(b.costsW) < maxW {
		b.costsW = append(b.costsW, nil)
		b.infsW = append(b.infsW, nil)
	}
	for w := 0; w < maxW; w++ {
		if cap(b.costsW[w]) < n {
			b.costsW[w] = make([]float64, n)
			b.infsW[w] = make([]bool, n)
		}
	}
	parallelFor(maxW, len(dirty), work, func(worker, lo, hi int) {
		costs := b.costsW[worker][:n]
		infs := b.infsW[worker][:n]
		for di := lo; di < hi; di++ {
			vi := int(dirty[di])
			for o := 0; o < n; o++ {
				costs[o], infs[o] = 0, false
			}
			// Data terms: one axpy over each contributor's xmits row.
			// X[p][p] is exactly 0, so the scalar path's "producer
			// stores its own value for free" skip needs no special
			// case — adding w·0 is a floating-point no-op.
			for e := ct.off[vi]; e < ct.off[vi+1]; e++ {
				row := rows[ct.prods[e]]
				w := ct.weights[e]
				for o := 0; o < n; o++ {
					if x := row[o]; x >= Inf {
						infs[o] = true
					} else {
						costs[o] += w * x
					}
				}
			}
			// Query term (paper Figure 2's round trip), owners != base.
			if p := qp[vi]; p > 0 && qrate > 0 {
				f := p * qrate
				for o := 0; o < n; o++ {
					if o == base {
						continue
					}
					if rt[o] >= Inf {
						infs[o] = true
					} else {
						costs[o] += f * rt[o]
					}
				}
			}
			// Argmin with the documented tie-break: the base wins
			// exact ties, then the lower node ID.
			best := base
			bestCost := costs[base]
			if infs[base] {
				bestCost = Inf
			}
			for o := 0; o < n; o++ {
				if o == base {
					continue
				}
				c := costs[o]
				if infs[o] {
					c = Inf
				}
				if c < bestCost {
					best, bestCost = o, c
				}
			}
			b.best[vi] = netsim.NodeID(best)
			b.bestCost[vi] = bestCost
		}
	})
}

// ctCur is the current cost-model buffer index (independent of the
// xmits buffer index, which only advances when the graph changes).
func (b *Builder) ctCur() int { return b.ctFlip }

// differ reports whether two cost inputs changed for dirty tracking:
// any bit difference counts, except that any two unreachable (≥ Inf)
// values are equal.
func differ(a, c float64) bool {
	return a != c && !(a >= Inf && c >= Inf)
}
