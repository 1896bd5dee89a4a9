package index

import (
	"runtime"
	"slices"
	"sync"
)

// This file implements the sparse all-pairs shortest-path pass that
// replaced the dense Floyd–Warshall: a CSR adjacency built from the
// Graph's link observations, per-source Dijkstra over a reusable
// binary heap, fanned out across a bounded worker pool.
//
// Determinism rules (DESIGN.md, reindex pipeline):
//   - Each source's distance row depends only on the CSR arrays, which
//     are a pure function of the Graph's reports — workers write
//     disjoint rows, so the result is bit-identical whatever
//     GOMAXPROCS is (pinned by TestXmitsGOMAXPROCSDeterminism).
//   - The heap orders by (distance, node ID): floating-point distance
//     ties pop the lower node ID first, so even the relaxation order —
//     not just the final distances — is fully specified.
//   - Path sums are left folds from the source (dist[u] + w(u,v)),
//     which FW does not guarantee; the two passes agree exactly on
//     exactly-representable edge costs and to ~1 ulp otherwise.

// csr is a compressed-sparse-row adjacency: edges of row i live in
// to[head[i]:head[i+1]] (ascending target order) with cost w (ETX,
// 1/quality). All slices, the sort scratch included, are reused across
// rebuilds.
type csr struct {
	n    int
	head []int32
	to   []int32
	w    []float64

	sorted, tmp []linkReport
}

// build packs the graph's reports into the CSR, reusing the receiver's
// slices. Two stable counting sorts, by target and then by source, put
// each source's reports in ascending target order with a pair's reports
// in arrival order, so the last of each run is the one that counts.
// Only links at or above minUsableQuality become edges (the same rule
// the dense pass applies).
func (c *csr) build(g *Graph) {
	n := g.N
	c.n = n
	c.head = slices.Grow(c.head[:0], n+1)[:n+1]
	c.tmp = countingSort(c.tmp, g.reports, c.head, func(r linkReport) int32 { return r.to })
	c.sorted = countingSort(c.sorted, c.tmp, c.head, func(r linkReport) int32 { return r.from })
	c.to, c.w = slices.Grow(c.to[:0], len(c.sorted)), slices.Grow(c.w[:0], len(c.sorted))
	row := int32(0)
	for k, r := range c.sorted {
		if k+1 < len(c.sorted) && c.sorted[k+1].from == r.from && c.sorted[k+1].to == r.to {
			continue // a later report of the pair overrides this one
		}
		if r.q < minUsableQuality {
			continue
		}
		for ; row <= r.from; row++ {
			c.head[row] = int32(len(c.to))
		}
		c.to = append(c.to, r.to)
		c.w = append(c.w, 1.0/r.q)
	}
	for ; int(row) <= n; row++ {
		c.head[row] = int32(len(c.to))
	}
}

// countingSort stably sorts src into dst (resized) by key, which must
// lie in [0, len(count)-1); count is scratch.
func countingSort(dst, src []linkReport, count []int32, key func(linkReport) int32) []linkReport {
	clear(count)
	for _, r := range src {
		count[key(r)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for _, r := range src {
		dst[count[key(r)]] = r
		count[key(r)]++
	}
	return dst
}

// spItem is one heap entry: a tentative distance to a node.
type spItem struct {
	d  float64
	id int32
}

// spLess is the heap order: distance, then node ID — the explicit
// FP-tie rule that makes the relaxation order deterministic.
func spLess(a, b spItem) bool {
	return a.d < b.d || (a.d == b.d && a.id < b.id)
}

// spHeap is a hand-rolled binary min-heap over spItems (no interface
// boxing; the slice is per-worker scratch reused across sources).
type spHeap []spItem

func (h *spHeap) push(it spItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !spLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *spHeap) pop() spItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && spLess(s[l], s[min]) {
			min = l
		}
		if r < last && spLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// dijkstra fills dist (one row of the all-pairs matrix, length c.n)
// with left-fold shortest-path sums from src, leaving unreachable
// nodes at exactly Inf. Lazy-deletion variant: stale heap entries are
// skipped on pop. heap is caller-owned scratch. A stop ≥ 0 ends the
// search when stop pops: a distance is final once popped, so
// dist[stop] is then the full search's bit for bit, and only the
// entries of nodes popped before it are.
func dijkstra(c *csr, src int32, dist []float64, heap *spHeap, stop int32) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	*heap = (*heap)[:0]
	heap.push(spItem{d: 0, id: src})
	for len(*heap) > 0 {
		it := heap.pop()
		if it.d > dist[it.id] {
			continue // stale entry superseded by a shorter path
		}
		if it.id == stop {
			return
		}
		for e := c.head[it.id]; e < c.head[it.id+1]; e++ {
			v := c.to[e]
			if nd := it.d + c.w[e]; nd < dist[v] {
				dist[v] = nd
				heap.push(spItem{d: nd, id: v})
			}
		}
	}
}

// parallelGrain is the minimum amount of per-item work (in rough
// "inner operations" units) below which parallelFor stays serial: the
// paper-scale 63-node rebuilds that dominate sweep grids must not pay
// goroutine scheduling for microsecond loops.
const parallelGrain = 1 << 17

// maxWorkers is the widest fan-out parallelFor will use, so callers
// can pre-size per-worker scratch before spawning anything. Callers
// must pass the same value to parallelFor rather than re-reading
// GOMAXPROCS there — a concurrent GOMAXPROCS change between sizing
// and fan-out would otherwise hand workers out-of-range indices.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// parallelFor splits [0,items) into one contiguous chunk per worker
// and runs fn(worker, lo, hi) concurrently with worker < workers
// (the caller's scratch bound). totalWork below parallelGrain (or a
// single worker) runs inline. fn must write only to item-indexed
// state, and read another item's state only after a barrier both
// items' workers pass, which makes the result independent of
// scheduling.
func parallelFor(workers, items, totalWork int, fn func(worker, lo, hi int)) {
	if workers > items {
		workers = items
	}
	if workers <= 1 || totalWork < parallelGrain {
		fn(0, 0, items)
		return
	}
	chunk := (items + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= items {
			break
		}
		hi := lo + chunk
		if hi > items {
			hi = items
		}
		wg.Add(1)
		//scoop:allow goroutine fork-join over disjoint item ranges, which meet only at a barrier; wg.Wait joins before any result is read
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// barrier makes n goroutines wait for each other: wait returns once
// all n have called it, and the barrier is then ready for the next
// round. What a goroutine wrote before its wait is visible to every
// other after theirs.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, left int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n, left: n}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left--; b.left == 0 {
		b.left, b.round = b.n, b.round+1
		b.cond.Broadcast()
		return
	}
	for r := b.round; r == b.round; {
		b.cond.Wait()
	}
}

// spWorker is one worker's scratch: its Dijkstra heap and a distance
// row.
type spWorker struct {
	heap spHeap
	row  []float64
}
