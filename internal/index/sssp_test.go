package index

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scoop/internal/netsim"
)

// sparseGraph builds an n-node graph where each node reports roughly
// degree out-links — the shape real summaries produce (paper §5.2:
// ~12 best neighbors per node).
func sparseGraph(n, degree int, r *rand.Rand, quality func() float64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			g.Report(netsim.NodeID(i), netsim.NodeID(j), quality())
		}
	}
	return g
}

// exactQuality draws qualities whose ETX edge costs are powers of two
// (1, 2, 4, 8): every path sum is exactly representable, so any
// parenthesisation of the same sum — Floyd–Warshall's or Dijkstra's —
// yields the same float64 bit pattern.
func exactQuality(r *rand.Rand) func() float64 {
	vals := []float64{1.0, 0.5, 0.25, 0.125}
	return func() float64 { return vals[r.Intn(len(vals))] }
}

// TestXmitsMatchesDenseExact: on graphs with exactly-representable
// edge costs the sparse pass must be bit-identical to Floyd–Warshall,
// including exact Inf for unreachable pairs and 0 diagonals.
func TestXmitsMatchesDenseExact(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		g := sparseGraph(n, 2+r.Intn(6), r, exactQuality(r))
		sparse := g.Xmits()
		dense := g.XmitsDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sparse[i][j] != dense[i][j] {
					t.Fatalf("seed %d: xmits[%d][%d] sparse %v != dense %v",
						seed, i, j, sparse[i][j], dense[i][j])
				}
			}
		}
	}
}

// TestXmitsMatchesDenseFloat: with arbitrary float qualities the two
// passes may parenthesise a path sum differently, so they are required
// to agree only to within a few ulps (1e-12 relative) — and exactly on
// reachability.
func TestXmitsMatchesDenseFloat(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(80)
		q := func() float64 { return 0.13 + 0.87*r.Float64() }
		g := sparseGraph(n, 2+r.Intn(8), r, q)
		sparse := g.Xmits()
		dense := g.XmitsDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s, d := sparse[i][j], dense[i][j]
				if (s >= Inf) != (d >= Inf) {
					t.Fatalf("seed %d: reachability of [%d][%d] differs: sparse %v dense %v",
						seed, i, j, s, d)
				}
				if s >= Inf {
					continue
				}
				if diff := math.Abs(s - d); diff > 1e-12*math.Max(s, 1) {
					t.Fatalf("seed %d: xmits[%d][%d] sparse %v vs dense %v (diff %g)",
						seed, i, j, s, d, diff)
				}
			}
		}
	}
}

// TestXmitsDegenerate covers the edge shapes the solver must not trip
// on: an empty graph, a single node, and a fully unusable link set.
func TestXmitsDegenerate(t *testing.T) {
	if x := NewGraph(1).Xmits(); x[0][0] != 0 {
		t.Fatalf("single node self distance %v", x[0][0])
	}
	g := NewGraph(3)
	g.Report(0, 1, 0.05) // below minUsableQuality: no edge
	x := g.Xmits()
	if x[0][1] < Inf || x[1][2] < Inf {
		t.Fatal("unusable links produced finite distances")
	}
	if x[0][0] != 0 || x[1][1] != 0 || x[2][2] != 0 {
		t.Fatal("non-zero diagonal")
	}
}

// TestXmitsGOMAXPROCSDeterminism pins the parallel fan-out: the same
// graph must produce a bit-identical matrix at GOMAXPROCS=1 (serial)
// and GOMAXPROCS=8. GOMAXPROCS is forced to 8 — not left at the host
// default — so the concurrent path runs even on single-core CI. The
// graph is big enough to clear the parallel grain so the pool
// actually engages.
func TestXmitsGOMAXPROCSDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 400
	q := func() float64 { return 0.13 + 0.87*r.Float64() }
	g := sparseGraph(n, 12, r, q)

	prev := runtime.GOMAXPROCS(1)
	serial := snapshot(g.Xmits())
	runtime.GOMAXPROCS(8)
	parallel := snapshot(g.Xmits())
	runtime.GOMAXPROCS(prev)

	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("entry %d differs across GOMAXPROCS: serial %v parallel %v",
				i, serial[i], parallel[i])
		}
	}
}

// TestGraphReset verifies the reuse contract: a Reset graph behaves
// exactly like a fresh one.
func TestGraphReset(t *testing.T) {
	g := NewGraph(4)
	g.Report(0, 1, 0.9)
	g.Report(1, 2, 0.8)
	g.Reset()
	for i, row := range denseOf(g).q {
		for j, q := range row {
			if q != 0 {
				t.Fatalf("quality[%d][%d] = %v after Reset", i, j, q)
			}
		}
	}
	g.Report(0, 1, 0.5)
	if x := g.Xmits(); x[0][1] != 2 {
		t.Fatalf("xmits after Reset+Report = %v, want 2", x[0][1])
	}
}

// TestGraphCSRMatchesDense holds the report list to the dense matrix it
// replaced: over random Report sequences — pairs reported again, a later
// 0 over a positive report, qualities clamped below 0 and above 1,
// self-reports, IDs out of range, Reset between batches, one csr reused
// across graph sizes — the sparse Graph packs into a CSR (head, to, w)
// bit-equal to the dense matrix's row-major scan.
func TestGraphCSRMatchesDense(t *testing.T) {
	var c csr
	var zeroed, clamped, ignored int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := NewGraph(n)
		for batch := 0; batch < 3; batch++ {
			g.Reset()
			d := newDenseGraph(n)
			var from, to netsim.NodeID
			for k := r.Intn(8 * n); k > 0; k-- {
				if k == 1 || r.Intn(4) != 0 { // else: the previous pair again
					from, to = netsim.NodeID(r.Intn(n+2)), netsim.NodeID(r.Intn(n+2))
				}
				q := r.Float64()
				switch r.Intn(6) {
				case 0:
					q = 0
				case 1:
					q = -q
				case 2:
					q++
				case 3:
					q = minUsableQuality
				}
				switch {
				case int(from) >= n || int(to) >= n || from == to:
					ignored++
				case q <= 0 && d.q[from][to] > 0:
					zeroed++
				case q < 0 || q > 1:
					clamped++
				}
				g.Report(from, to, q)
				d.report(from, to, q)
			}
			c.build(g)
			want := d.csr()
			if !slices.Equal(c.head, want.head) || !slices.Equal(c.to, want.to) ||
				!slices.EqualFunc(c.w, want.w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("seed %d batch %d (n = %d): CSR\n head %v\n to %v\n w %v\nwant\n head %v\n to %v\n w %v",
					seed, batch, n, c.head, c.to, c.w, want.head, want.to, want.w)
			}
		}
	}
	if zeroed == 0 || clamped == 0 || ignored == 0 {
		t.Fatalf("sequences never exercised a case: %d zeroing overwrites, %d clamps, %d ignored reports", zeroed, clamped, ignored)
	}
}

func snapshot(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// denseGraph is the Graph this package kept before the report list
// (PR 25): an N×N quality matrix each report overwrites in place,
// scanned row by row into the CSR. It stays as the reference model the
// sparse Graph is held to, and as XmitsDense's input.
type denseGraph struct {
	n int
	q [][]float64
}

func newDenseGraph(n int) *denseGraph {
	d := &denseGraph{n: n, q: make([][]float64, n)}
	for i := range d.q {
		d.q[i] = make([]float64, n)
	}
	return d
}

func (d *denseGraph) report(from, to netsim.NodeID, quality float64) {
	if int(from) >= d.n || int(to) >= d.n || from == to {
		return
	}
	if quality < 0 {
		quality = 0
	}
	if quality > 1 {
		quality = 1
	}
	d.q[from][to] = quality
}

// csr is the row-major scan the dense csr.build did.
func (d *denseGraph) csr() csr {
	c := csr{n: d.n, head: make([]int32, d.n+1)}
	for i, row := range d.q {
		c.head[i] = int32(len(c.to))
		for j, q := range row {
			if q >= minUsableQuality {
				c.to = append(c.to, int32(j))
				c.w = append(c.w, 1.0/q)
			}
		}
	}
	c.head[d.n] = int32(len(c.to))
	return c
}

// denseOf replays g's reports into the dense matrix.
func denseOf(g *Graph) *denseGraph {
	d := newDenseGraph(g.N)
	for _, r := range g.reports {
		d.report(netsim.NodeID(r.from), netsim.NodeID(r.to), r.q)
	}
	return d
}

// XmitsDense is the original dense Floyd–Warshall pass, kept as the
// reference implementation the sparse solver is equivalence-tested
// against (and for ablation benches). Its results agree with Xmits up
// to floating-point association: both compute shortest-path sums of
// the same edge costs, but FW may round a different parenthesisation
// of the same path.
func (g *Graph) XmitsDense() [][]float64 {
	n := g.N
	q := denseOf(g).q
	// One flat backing array: row slices share it, so the O(n²) matrix
	// is a single allocation and the k-loop walks contiguous memory.
	flat := make([]float64, n*n)
	d := make([][]float64, n)
	for i := range d {
		d[i] = flat[i*n : (i+1)*n : (i+1)*n]
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case q[i][j] >= minUsableQuality:
				d[i][j] = 1.0 / q[i][j]
			default:
				d[i][j] = Inf
			}
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= Inf {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if alt := dik + dk[j]; alt < di[j] {
					di[j] = alt
				}
			}
		}
	}
	return d
}
