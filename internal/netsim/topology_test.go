package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"scoop/internal/metrics"
)

func TestGridTopologyBasics(t *testing.T) {
	topo := GridTopology(63, 2.5, 1)
	if topo.N != 63 {
		t.Fatalf("N = %d", topo.N)
	}
	for i := 0; i < topo.N; i++ {
		for _, lk := range topo.OutLinks(NodeID(i)) {
			if lk.Dst == NodeID(i) {
				t.Fatalf("self-link at %d", i)
			}
		}
	}
}

// forEachLink calls f for every directed link of topo.
func forEachLink(topo *Topology, f func(i, j NodeID, q float64)) {
	for i := 0; i < topo.N; i++ {
		for _, lk := range topo.OutLinks(NodeID(i)) {
			f(NodeID(i), lk.Dst, lk.Quality)
		}
	}
}

func TestTopologyQualityRange(t *testing.T) {
	for _, topo := range []*Topology{
		GridTopology(63, 2.5, 2),
		UniformTopology(63, 8, 3.2, 2),
		TestbedTopology(63, 2),
	} {
		forEachLink(topo, func(_, _ NodeID, q float64) {
			if q <= 0 || q > 1 {
				t.Fatalf("quality out of range: %f", q)
			}
		})
	}
}

func TestTopologyLossBand(t *testing.T) {
	// Audible links span from near-deaf (90% loss) to reliable
	// close-range pairs (10% loss), with most mass in between.
	forEachLink(UniformTopology(63, 8, 3.2, 5), func(_, _ NodeID, q float64) {
		if q < 0.09 || q > 0.91 {
			t.Fatalf("audible link quality %f outside band", q)
		}
	})
}

func TestTopologyConnectivityFraction(t *testing.T) {
	// Paper: on average a node hears ~20% of the network. Accept a
	// generous band; the shape of results tolerates it.
	topo := UniformTopology(63, 8, 3.2, 7)
	frac := float64(len(topo.links)) / float64(topo.N*(topo.N-1))
	if frac < 0.08 || frac > 0.45 {
		t.Fatalf("avg degree fraction %f outside plausible band", frac)
	}
}

func TestTopologyConnected(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, topo := range []*Topology{
			GridTopology(63, 2.5, seed),
			UniformTopology(63, 8, 3.2, seed),
			TestbedTopology(63, seed),
			UniformTopology(101, 10, 3.2, seed),
		} {
			if !biconnectedToBase(topo) {
				t.Fatalf("seed %d: topology not connected to base", seed)
			}
		}
	}
}

// biconnectedToBase checks every node reaches node 0 over links usable
// in both directions (needed for ack-based unicast).
func biconnectedToBase(topo *Topology) bool {
	reach := make([]bool, topo.N)
	reach[0] = true
	queue := []NodeID{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, lk := range topo.OutLinks(i) {
			if !reach[lk.Dst] && topo.Quality(lk.Dst, i) > 0 {
				reach[lk.Dst] = true
				queue = append(queue, lk.Dst)
			}
		}
	}
	for _, r := range reach {
		if !r {
			return false
		}
	}
	return true
}

func TestTopologyAsymmetry(t *testing.T) {
	topo := UniformTopology(63, 8, 3.2, 9)
	asym := 0
	links := 0
	forEachLink(topo, func(i, j NodeID, q float64) {
		if i < j && topo.Quality(j, i) > 0 {
			links++
			if math.Abs(q-topo.Quality(j, i)) > 1e-9 {
				asym++
			}
		}
	})
	if links == 0 {
		t.Fatal("no links")
	}
	if float64(asym)/float64(links) < 0.5 {
		t.Fatalf("only %d/%d links asymmetric; topology should be slightly asymmetric", asym, links)
	}
}

func TestTopologyDeterminism(t *testing.T) {
	a := UniformTopology(63, 8, 3.2, 11)
	b := UniformTopology(63, 8, 3.2, 11)
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("positions differ at %d", i)
		}
		for j := 0; j < a.N; j++ {
			if a.Quality(NodeID(i), NodeID(j)) != b.Quality(NodeID(i), NodeID(j)) {
				t.Fatalf("quality differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTestbedMutualAudibility(t *testing.T) {
	topo := TestbedTopology(63, 4)
	forEachLink(topo, func(i, j NodeID, _ float64) {
		if topo.Quality(j, i) == 0 {
			t.Fatalf("one-way audibility between %d and %d", i, j)
		}
	})
}

func TestNewTopologyBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized topology")
		}
	}()
	NewTopology(MaxNodes + 1)
}

// TestSetQuality: an edit inserts, updates and removes a link in place,
// keeping every node's out-links sorted and the other nodes' untouched.
func TestSetQuality(t *testing.T) {
	topo := NewTopology(4)
	topo.SetQuality(2, 3, 0.5)
	topo.SetQuality(2, 0, 0.25)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(2, 1, 0.75)
	topo.SetQuality(2, 1, 0.125) // update
	topo.SetQuality(3, 0, -1)    // nothing to remove
	topo.SetQuality(0, 3, 0.5)
	topo.SetQuality(0, 3, 0) // remove
	want := [][]Link{
		{{1, 1}},
		nil,
		{{0, 0.25}, {1, 0.125}, {3, 0.5}},
		nil,
	}
	for i := range want {
		got := topo.OutLinks(NodeID(i))
		if len(got) != len(want[i]) {
			t.Fatalf("node %d: out-links %v, want %v", i, got, want[i])
		}
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("node %d: out-links %v, want %v", i, got, want[i])
			}
		}
	}
	if q := topo.Quality(2, 1); q != 0.125 {
		t.Fatalf("Quality(2, 1) = %v, want 0.125", q)
	}
	if q := topo.Quality(1, 2); q != 0 {
		t.Fatalf("Quality(1, 2) = %v, want 0", q)
	}
	if len(topo.links) != 4 {
		t.Fatalf("%d links, want 4", len(topo.links))
	}
}

// TestSetQualityPanics: malformed edits fail loudly — a self-link, an
// ID outside the topology, and any edit once a Network is built on it
// (the network would go on using the links it was built with).
func TestSetQualityPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	topo := NewTopology(3)
	mustPanic("self-link", func() { topo.SetQuality(1, 1, 0.5) })
	mustPanic("ID out of range", func() { topo.SetQuality(0, 3, 0.5) })
	topo.SetQuality(0, 1, 0.5)
	NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
	mustPanic("edit after NewNetwork", func() { topo.SetQuality(0, 1, 0.9) })
	mustPanic("removal after NewNetwork", func() { topo.SetQuality(0, 1, 0) })
	if q := topo.Quality(0, 1); q != 0.5 {
		t.Fatalf("Quality(0, 1) = %v after the refused edits, want 0.5", q)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %f", d)
	}
}

// Property: link quality is always 0 beyond radio range and within
// [0.10, 0.75] when nonzero.
func TestLinkQualityProperty(t *testing.T) {
	f := func(dSeed uint32) bool {
		r := newTestRand(int64(dSeed))
		d := float64(dSeed%600) / 100.0 // 0..6
		q := linkQuality(d, 3.0, r)
		if d >= 3.0 {
			return q == 0
		}
		return q == 0 || (q >= 0.10 && q <= 0.90)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsListsAudible(t *testing.T) {
	topo := UniformTopology(40, 7, 3.2, 13)
	for i := 0; i < topo.N; i++ {
		for _, l := range topo.OutLinks(NodeID(i)) {
			nb := l.Dst
			if topo.Quality(NodeID(i), nb) == 0 {
				t.Fatalf("neighbor %d of %d has zero quality", nb, i)
			}
			if nb == NodeID(i) {
				t.Fatal("node listed as own neighbor")
			}
		}
	}
}

// refTopology is the generators' reference model: the dense N×N Quality
// matrix and all-pairs scans the link array and cell grid replaced
// (PR 25), kept line for line.
type refTopology struct {
	pos []Point
	q   [][]float64
}

func newRefTopology(n int) *refTopology {
	t := &refTopology{pos: make([]Point, n), q: make([][]float64, n)}
	for i := range t.q {
		t.q[i] = make([]float64, n)
	}
	return t
}

func refFillLinks(t *refTopology, radioRange float64, r *rand.Rand) {
	for i := range t.pos {
		for j := i + 1; j < len(t.pos); j++ {
			d := t.pos[i].Dist(t.pos[j])
			qf := linkQuality(d, radioRange, r)
			qr := linkQuality(d, radioRange, r)
			if qf == 0 || qr == 0 {
				continue
			}
			asym := 1.0 + (r.Float64()-0.5)*0.2
			qr *= asym
			if qr > 0.90 {
				qr = 0.90
			}
			if qr < 0.10 {
				qr = 0.10
			}
			t.q[i][j] = qf
			t.q[j][i] = qr
		}
	}
}

func refEnsureConnected(t *refTopology, r *rand.Rand) {
	n := len(t.pos)
	for {
		reach := make([]bool, n)
		reach[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for j := 0; j < n; j++ {
				if !reach[j] && t.q[i][j] > 0 && t.q[j][i] > 0 {
					reach[j] = true
					queue = append(queue, j)
				}
			}
		}
		bestI, bestJ, bestD := -1, -1, math.MaxFloat64
		for j := 0; j < n; j++ {
			if reach[j] {
				continue
			}
			for i := 0; i < n; i++ {
				if !reach[i] {
					continue
				}
				if d := t.pos[i].Dist(t.pos[j]); d < bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		if bestJ < 0 {
			return
		}
		q := 0.3 + r.Float64()*0.3
		t.q[bestI][bestJ] = q
		t.q[bestJ][bestI] = q * (0.9 + r.Float64()*0.2)
	}
}

func refGridTopology(n int, radioRangeCells float64, r *rand.Rand) *refTopology {
	t := newRefTopology(n)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		row, col := i/cols, i%cols
		t.pos[i] = Point{
			X: float64(col) + (r.Float64()-0.5)*0.3,
			Y: float64(row) + (r.Float64()-0.5)*0.3,
		}
	}
	refFillLinks(t, radioRangeCells, r)
	refEnsureConnected(t, r)
	return t
}

func refUniformTopology(n int, side, radioRange float64, r *rand.Rand) *refTopology {
	t := newRefTopology(n)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	sort.Slice(pts, func(i, j int) bool {
		si, sj := int(pts[i].Y/2), int(pts[j].Y/2)
		if si != sj {
			return si < sj
		}
		if si%2 == 0 {
			return pts[i].X < pts[j].X
		}
		return pts[i].X > pts[j].X
	})
	copy(t.pos, pts)
	best, bestD := 0, math.MaxFloat64
	for i := 0; i < n; i++ {
		if d := t.pos[i].Dist(Point{}); d < bestD {
			best, bestD = i, d
		}
	}
	t.pos[0], t.pos[best] = t.pos[best], t.pos[0]
	refFillLinks(t, radioRange, r)
	refEnsureConnected(t, r)
	return t
}

func refTestbedTopology(n int, r *rand.Rand) *refTopology {
	t := newRefTopology(n)
	rows := 4
	for i := 0; i < n; i++ {
		row, col := i%rows, i/rows
		t.pos[i] = Point{
			X: float64(col)*1.2 + (r.Float64()-0.5)*0.4,
			Y: float64(row)*2.0 + (r.Float64()-0.5)*0.4,
		}
	}
	refFillLinks(t, 4.0, r)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || t.q[i][j] == 0 {
				continue
			}
			if math.Abs(t.pos[i].Y-t.pos[j].Y) > 1.5 {
				t.q[i][j] *= 0.7
				if t.q[i][j] < 0.10 {
					t.q[i][j] = 0
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if t.q[i][j] > 0 && t.q[j][i] == 0 {
				t.q[i][j] = 0
			}
		}
	}
	refEnsureConnected(t, r)
	return t
}

// matchesReference reports where got departs from the reference: every
// position bit-equal, and each node's out-links exactly the audible
// entries of its matrix row, in ascending destination order with
// bit-equal qualities.
func matchesReference(got *Topology, want *refTopology) string {
	if got.N != len(want.pos) {
		return "size differs"
	}
	for i, p := range want.pos {
		if math.Float64bits(got.Pos[i].X) != math.Float64bits(p.X) || math.Float64bits(got.Pos[i].Y) != math.Float64bits(p.Y) {
			return fmt.Sprintf("position of node %d differs", i)
		}
		links := got.OutLinks(NodeID(i))
		k := 0
		for j, q := range want.q[i] {
			if i == j || q <= 0 {
				continue
			}
			if k >= len(links) || links[k].Dst != NodeID(j) || math.Float64bits(links[k].Quality) != math.Float64bits(q) {
				return fmt.Sprintf("out-link %d of node %d differs", k, i)
			}
			k++
		}
		if k != len(links) {
			return fmt.Sprintf("node %d has %d extra out-links", i, len(links)-k)
		}
	}
	return ""
}

// TestGeneratorsMatchDenseReference holds the link-array generators to
// the dense ones they replaced: for Grid, Uniform (exp's parameters)
// and Testbed at N ∈ {1, 2, 3, 63, 250, 1000} × seeds 1–10, bit-equal
// positions, bit-equal out-link lists, and the same next draw from the
// generator's stream — the same stream position, so the cell grid
// skipped exactly the pairs that drew nothing. The transmit loop draws
// per-receiver randomness in out-link order, so any deviation would
// silently change every simulation.
func TestGeneratorsMatchDenseReference(t *testing.T) {
	sizes := []int{1, 2, 3, 63, 250, 1000}
	gens := []struct {
		name string
		got  func(n int, r *rand.Rand) *Topology
		want func(n int, r *rand.Rand) *refTopology
	}{
		{"grid", func(n int, r *rand.Rand) *Topology { return gridTopology(n, 2.5, r) },
			func(n int, r *rand.Rand) *refTopology { return refGridTopology(n, 2.5, r) }},
		{"uniform", func(n int, r *rand.Rand) *Topology { return uniformTopology(n, math.Sqrt(float64(n))*1.008, 3.5, r) },
			func(n int, r *rand.Rand) *refTopology {
				return refUniformTopology(n, math.Sqrt(float64(n))*1.008, 3.5, r)
			}},
		{"testbed", testbedTopology, refTestbedTopology},
	}
	for _, g := range gens {
		for _, n := range sizes {
			for seed := int64(1); seed <= 10; seed++ {
				rGot, rWant := newTestRand(seed), newTestRand(seed)
				if diff := matchesReference(g.got(n, rGot), g.want(n, rWant)); diff != "" {
					t.Fatalf("%s N=%d seed %d: %s", g.name, n, seed, diff)
				}
				if a, b := rGot.Uint64(), rWant.Uint64(); a != b {
					t.Fatalf("%s N=%d seed %d: next draw %#x, reference %#x", g.name, n, seed, a, b)
				}
			}
		}
	}
}

// TestFillLinksCornerCases runs fillLinks and the dense scan over
// hand-placed nodes where a cell grid could go wrong: pairs at exactly
// radioRange (no link, no draw) and one ulp inside it, pairs straddling
// every cell edge, negative and mixed-sign coordinates, and a field far
// wider than the range.
func TestFillLinksCornerCases(t *testing.T) {
	const R = 2.5
	in := math.Nextafter(R, 0)
	// Straddlers, with a node at the origin so cell edges sit at
	// multiples of R: pairs either side of an edge, diagonal pairs
	// across a corner, and pairs a whole cell apart just inside range.
	straddle := []Point{{0, 0}}
	for k := 1; k <= 5; k++ {
		e := float64(k) * R
		straddle = append(straddle,
			Point{e - 1e-9, 0.5}, Point{e + 1e-9, 0.5},
			Point{e - 0.01, e + 0.01}, Point{e + 0.01, e - 0.01},
			Point{e - 1e-9, 2}, Point{e + R - 2e-9, 2})
	}
	cases := []struct {
		name string
		pos  []Point
	}{
		{"exact range", []Point{{0, 0}, {R, 0}, {0, R}, {R, R}, {2 * R, 0}, {in, R}, {R + in, R}}},
		{"ulp inside", []Point{{0, 0}, {in, 0}, {0, in}, {-in, 0}, {in + in, 0}}},
		{"negative jitter", []Point{{-0.15, -0.15}, {-0.1, 0.9}, {0.95, -0.12}, {-2.6, -0.15}, {-0.15 - R, 0.3}, {2.35, -0.15}}},
		{"far apart", []Point{{0, 0}, {1000, 1000}, {1000 + R/2, 1000}, {-1000, 5}, {0, 1}}},
		{"cell edges", straddle},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range cases {
			name, pos := c.name, c.pos
			got := &Topology{N: len(pos), Pos: append([]Point(nil), pos...)}
			want := &refTopology{pos: pos, q: newRefTopology(len(pos)).q}
			rGot, rWant := newTestRand(seed), newTestRand(seed)
			fillLinks(got, R, rGot, nil)
			refFillLinks(want, R, rWant)
			if diff := matchesReference(got, want); diff != "" {
				t.Fatalf("%s seed %d: %s", name, seed, diff)
			}
			ensureConnected(got, rGot)
			refEnsureConnected(want, rWant)
			if diff := matchesReference(got, want); diff != "" {
				t.Fatalf("%s seed %d, connected: %s", name, seed, diff)
			}
			if a, b := rGot.Uint64(), rWant.Uint64(); a != b {
				t.Fatalf("%s seed %d: next draw %#x, reference %#x", name, seed, a, b)
			}
		}
	}
}
