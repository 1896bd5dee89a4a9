package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

// Point is a 2-D node position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Topology describes node placement and directed link quality.
//
// Quality(i, j) is the probability that a single transmission by i is
// heard by j (0 = no link). Links are asymmetric: Quality(i, j) need
// not equal Quality(j, i), matching the paper's simulated topology
// ("connections are slightly asymmetric, as in most real wireless
// networks"; audible pairs have loss rates from ~25% to ~90%).
//
// Only audible links are stored, so memory follows the links, not N²
// (DESIGN.md §12): one array of every directed link, grouped by source
// in ascending source then destination order, and each node's offset
// into it. A link's position in the array is its link index, the key of
// everything a Network keeps per link. The ascending order is also a
// determinism contract: the transmit loop draws per-receiver randomness
// in exactly this order.
//
// SetQuality edits the links in place until a Network is created on the
// topology; from then on the network's per-link state is parallel to
// the link array, so the topology is immutable and SetQuality panics.
type Topology struct {
	N   int
	Pos []Point

	// links holds every audible directed link; node i's are
	// links[linkBase[i]:linkBase[i+1]] (linkBase nil: no links at all).
	// revLink[li], built by NewNetwork, is the index of li's reverse
	// link (the one an ack travels), -1 for a one-way link.
	links    []Link
	linkBase []int32
	revLink  []int32
	frozen   bool // a Network is built on the topology
}

// Link is one directed audible link: the destination and the delivery
// probability of a single transmission.
type Link struct {
	Dst     NodeID
	Quality float64
}

// NewTopology allocates an n-node topology with no links.
func NewTopology(n int) *Topology {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("netsim: topology size %d out of range [1,%d]", n, MaxNodes))
	}
	return &Topology{N: n, Pos: make([]Point, n)}
}

// OutLinks returns node i's audible out-links in ascending destination
// order: a view of the topology's link array, not a copy.
func (t *Topology) OutLinks(i NodeID) []Link {
	if t.linkBase == nil {
		return nil
	}
	lo, hi := t.linkBase[i], t.linkBase[i+1]
	return t.links[lo:hi:hi]
}

// Quality returns the delivery probability of one transmission i→j, 0
// when j cannot hear i.
func (t *Topology) Quality(i, j NodeID) float64 {
	if li := t.linkIndex(i, j); li >= 0 {
		return t.links[li].Quality
	}
	return 0
}

// SetQuality sets the delivery probability of i→j; q ≤ 0 removes the
// link. It panics on a self-link or an ID out of range, and once a
// Network is built on the topology: the network would go on using the
// links it was built with, and an edit silently ignored is worse than a
// loud one.
func (t *Topology) SetQuality(i, j NodeID, q float64) {
	switch {
	case t.frozen:
		panic("netsim: SetQuality on a topology a Network is built on")
	case i == j || int(i) >= t.N || int(j) >= t.N:
		panic(fmt.Sprintf("netsim: SetQuality(%d, %d) on a %d-node topology", i, j, t.N))
	}
	if t.linkBase == nil {
		t.linkBase = make([]int32, t.N+1)
	}
	k, found := slices.BinarySearchFunc(t.OutLinks(i), j, byDst)
	li := int(t.linkBase[i]) + k
	var d int32
	switch {
	case q > 0 && found:
		t.links[li].Quality = q
		return
	case q > 0:
		t.links, d = slices.Insert(t.links, li, Link{Dst: j, Quality: q}), 1
	case found:
		t.links, d = slices.Delete(t.links, li, li+1), -1
	default:
		return
	}
	for r := int(i) + 1; r <= t.N; r++ {
		t.linkBase[r] += d
	}
}

func byDst(lk Link, dst NodeID) int { return cmp.Compare(lk.Dst, dst) }

// linkIndex returns the link index of src→dst, -1 when dst cannot hear
// src. A binary search of src's out-links: the per-frame paths carry
// link indices instead (Network.transmit).
func (t *Topology) linkIndex(src, dst NodeID) int32 {
	k, ok := slices.BinarySearchFunc(t.OutLinks(src), dst, byDst)
	if !ok {
		return -1
	}
	return t.linkBase[src] + int32(k)
}

// freeze is NewNetwork's half of the immutability contract: it builds
// the reverse-link table the ack model reads, and SetQuality panics
// from then on.
func (t *Topology) freeze() {
	if t.frozen {
		return
	}
	t.frozen = true
	if t.linkBase == nil {
		t.linkBase = make([]int32, t.N+1)
	}
	t.revLink = make([]int32, len(t.links))
	for i := 0; i < t.N; i++ {
		for k, lk := range t.OutLinks(NodeID(i)) {
			t.revLink[int(t.linkBase[i])+k] = t.linkIndex(lk.Dst, NodeID(i))
		}
	}
}

// linkQuality derives the delivery probability of a directed link from
// distance, with lognormal-ish jitter and asymmetry. Pairs beyond
// rng*range have no link and draw nothing. Audible links are clamped
// into [minQ, maxQ], reproducing the paper's 25–90% loss band (quality
// 0.10–0.75).
func linkQuality(d, radioRange float64, r *rand.Rand) float64 {
	if d >= radioRange {
		return 0
	}
	// The bulk of audible pairs falls in the paper's 25–90% loss band,
	// but close-range links are reliable (loss ≤10%) — otherwise no
	// multihop protocol could deliver 93% of data, as the paper's
	// testbed does once routing picks the good links.
	const (
		minQ = 0.10 // 90% loss
		maxQ = 0.90 // 10% loss
	)
	// Base quality decays with distance; jitter models shadowing.
	base := 1.0 - math.Pow(d/radioRange, 1.5)
	q := base + r.NormFloat64()*0.12
	if q <= 0.02 {
		return 0 // effectively deaf pair despite being in range
	}
	if q < minQ {
		q = minQ
	}
	if q > maxQ {
		q = maxQ
	}
	return q
}

// fillLinks draws every link from positions, replacing any the topology
// had. Asymmetry is injected by drawing independent jitter per
// direction and then nudging one direction of each pair slightly
// ("slightly asymmetric").
//
// Pairs are drawn in ascending (i, j > i) order, the order the stream
// is consumed in, but only pairs the cell grid puts within reach are
// visited: linkQuality draws nothing for a pair at radioRange or
// beyond, so skipping those leaves every draw, and every link, as a
// scan of all N²/2 pairs would.
//
// attenuate, when non-nil, rescales each direction of an audible pair
// after the draw (0: lost); a pair that loses either direction is not
// linked, so audibility stays mutual.
func fillLinks(t *Topology, radioRange float64, r *rand.Rand, attenuate func(i, j NodeID, q float64) float64) {
	type pair struct {
		i, j   NodeID
		qf, qr float64
	}
	var pairs []pair
	base := make([]int32, t.N+1)
	cells := newCellGrid(t.Pos, radioRange)
	var near []NodeID
	for i := 0; i < t.N; i++ {
		near = cells.after(NodeID(i), near[:0])
		for _, j := range near {
			d := t.Pos[i].Dist(t.Pos[j])
			qf := linkQuality(d, radioRange, r)
			qr := linkQuality(d, radioRange, r)
			// A pair is audible in both directions or neither; the
			// magnitude differs per direction.
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
			if attenuate != nil {
				if qf, qr = attenuate(NodeID(i), j, qf), attenuate(j, NodeID(i), qr); qf == 0 || qr == 0 {
					continue
				}
			}
			pairs = append(pairs, pair{NodeID(i), j, qf, qr})
			base[i+1]++
			base[j+1]++
		}
	}
	for i := 0; i < t.N; i++ {
		base[i+1] += base[i]
	}
	// Node i's links arrive from the pairs (h < i, i) before the pairs
	// (i, j > i), each in pair order: ascending destination.
	t.links = make([]Link, base[t.N])
	next := slices.Clone(base[:t.N])
	for _, p := range pairs {
		t.links[next[p.i]] = Link{Dst: p.j, Quality: p.qf}
		next[p.i]++
		t.links[next[p.j]] = Link{Dst: p.i, Quality: p.qr}
		next[p.j]++
	}
	t.linkBase = base
}

// cellGrid buckets nodes into square cells at least radioRange wide, so
// two nodes closer than radioRange sit in the same or adjacent cells.
type cellGrid struct {
	cols  int
	cell  []int32  // node → cell, row-major
	start []int32  // cell c holds ids[start[c]:start[c+1]]
	ids   []NodeID // ascending within a cell
}

func newCellGrid(pos []Point, radioRange float64) cellGrid {
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		lo = Point{min(lo.X, p.X), min(lo.Y, p.Y)}
		hi = Point{max(hi.X, p.X), max(hi.Y, p.Y)}
	}
	// A hair wider than radioRange, so rounding in the cell index cannot
	// put an audible pair two cells apart; and no finer than √N cells a
	// side, so a short range over a wide field cannot ask for more cells
	// than nodes.
	side := max(radioRange*(1+1e-9), max(hi.X-lo.X, hi.Y-lo.Y)/math.Sqrt(float64(len(pos))))
	if !(side > 0) {
		side = 1
	}
	cols, rows := int((hi.X-lo.X)/side)+1, int((hi.Y-lo.Y)/side)+1
	g := cellGrid{cols: cols, cell: make([]int32, len(pos)), start: make([]int32, cols*rows+1), ids: make([]NodeID, len(pos))}
	for i, p := range pos {
		g.cell[i] = int32(int((p.Y-lo.Y)/side)*cols + int((p.X-lo.X)/side))
		g.start[g.cell[i]+1]++
	}
	for c := 0; c < cols*rows; c++ {
		g.start[c+1] += g.start[c]
	}
	next := slices.Clone(g.start[:cols*rows])
	for i, c := range g.cell {
		g.ids[next[c]] = NodeID(i)
		next[c]++
	}
	return g
}

// after appends to dst, in ascending order, every node above i in i's
// cell and the eight around it.
func (g *cellGrid) after(i NodeID, dst []NodeID) []NodeID {
	rows := (len(g.start) - 1) / g.cols
	cx, cy := int(g.cell[i])%g.cols, int(g.cell[i])/g.cols
	for y := max(cy-1, 0); y <= min(cy+1, rows-1); y++ {
		for x := max(cx-1, 0); x <= min(cx+1, g.cols-1); x++ {
			c := y*g.cols + x
			for _, j := range g.ids[g.start[c]:g.start[c+1]] {
				if j > i {
					dst = append(dst, j)
				}
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// ensureConnected raises the quality of the best dead link out of any
// node with no links toward the base component, so the routing tree can
// always form. Topology generators call this after the random draw.
func ensureConnected(t *Topology, r *rand.Rand) {
	for {
		reach := make([]bool, t.N)
		reach[0] = true
		queue := []NodeID{0}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for _, lk := range t.OutLinks(i) {
				if j := lk.Dst; !reach[j] && t.Quality(j, i) > 0 {
					reach[j] = true
					queue = append(queue, j)
				}
			}
		}
		// Find the unreached node closest to any reached node.
		bestI, bestJ, bestD := -1, -1, math.MaxFloat64
		for j := 0; j < t.N; j++ {
			if reach[j] {
				continue
			}
			for i := 0; i < t.N; i++ {
				if !reach[i] {
					continue
				}
				if d := t.Pos[i].Dist(t.Pos[j]); d < bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		if bestJ < 0 {
			return // fully connected
		}
		q := 0.3 + r.Float64()*0.3
		t.SetQuality(NodeID(bestI), NodeID(bestJ), q)
		t.SetQuality(NodeID(bestJ), NodeID(bestI), q*(0.9+r.Float64()*0.2))
	}
}

// topologyRand is a generator's stream: every draw a topology makes
// comes from it, in a fixed order, so a seed names one topology.
func topologyRand(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0)) }

// Layout returns the generator of a named node layout, the names every
// configuration uses: "uniform" (or ""), the paper's simulated square,
// sized 1.008·√n with radio range 3.5 for its ~20 % connectivity;
// "testbed"; and "grid", with a 2.5-cell range. Looking a name up
// builds nothing, so validation can afford it.
func Layout(name string) (func(n int, seed int64) *Topology, error) {
	switch name {
	case "", "uniform":
		return func(n int, seed int64) *Topology {
			return UniformTopology(n, 1.008*math.Sqrt(float64(n)), 3.5, seed)
		}, nil
	case "testbed":
		return TestbedTopology, nil
	case "grid":
		return func(n int, seed int64) *Topology { return GridTopology(n, 2.5, seed) }, nil
	}
	return nil, fmt.Errorf("netsim: unknown topology %q (want uniform, testbed or grid)", name)
}

// GridTopology places n nodes on a jittered grid with the basestation
// at one corner, the layout of typical indoor testbeds. radioRange is
// expressed in grid spacings (e.g. 2.5 means a node hears nodes up to
// 2.5 cells away).
func GridTopology(n int, radioRangeCells float64, seed int64) *Topology {
	return gridTopology(n, radioRangeCells, topologyRand(seed))
}

func gridTopology(n int, radioRangeCells float64, r *rand.Rand) *Topology {
	t := NewTopology(n)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		row, col := i/cols, i%cols
		t.Pos[i] = Point{
			X: float64(col) + (r.Float64()-0.5)*0.3,
			Y: float64(row) + (r.Float64()-0.5)*0.3,
		}
	}
	fillLinks(t, radioRangeCells, r, nil)
	ensureConnected(t, r)
	return t
}

// UniformTopology scatters n nodes uniformly in a side×side square with
// the basestation nearest the corner, the paper's simulated layout.
//
// Node IDs are assigned in strip-major spatial order (as deployments
// number motes room by room), so consecutive IDs are physically close.
// The REAL workload's geographic value correlation keys off this,
// matching the Intel-lab trace where node numbering follows the
// floorplan.
func UniformTopology(n int, side, radioRange float64, seed int64) *Topology {
	return uniformTopology(n, side, radioRange, topologyRand(seed))
}

func uniformTopology(n int, side, radioRange float64, r *rand.Rand) *Topology {
	t := NewTopology(n)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	// Strip-major order: walk ~2-unit-tall horizontal strips,
	// alternating direction (boustrophedon) so strip ends stay close.
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
	copy(t.Pos, pts)
	// Move the node closest to the origin to index 0 (basestation).
	best, bestD := 0, math.MaxFloat64
	for i := 0; i < n; i++ {
		if d := t.Pos[i].Dist(Point{}); d < bestD {
			best, bestD = i, d
		}
	}
	t.Pos[0], t.Pos[best] = t.Pos[best], t.Pos[0]
	fillLinks(t, radioRange, r, nil)
	ensureConnected(t, r)
	return t
}

// TestbedTopology models the paper's 62-node indoor office-floor
// testbed: an elongated floorplan (long corridor) with clustered
// offices, which yields deeper routing trees and different message
// breakdowns than the square simulated topology — the paper observes
// that testbed and simulation results differ only by such topology
// effects. The basestation sits at one end of the corridor.
func TestbedTopology(n int, seed int64) *Topology {
	return testbedTopology(n, topologyRand(seed))
}

func testbedTopology(n int, r *rand.Rand) *Topology {
	t := NewTopology(n)
	// 4 rows of offices along a long corridor.
	rows := 4
	for i := 0; i < n; i++ {
		row, col := i%rows, i/rows
		t.Pos[i] = Point{
			X: float64(col)*1.2 + (r.Float64()-0.5)*0.4,
			Y: float64(row)*2.0 + (r.Float64()-0.5)*0.4,
		}
	}
	// Radio range chosen so that average connectivity lands near the
	// paper's ~20% of nodes. Interior walls attenuate cross-row links a
	// bit; one that falls under 0.10 is lost, and its pair with it.
	fillLinks(t, 4.0, r, func(i, j NodeID, q float64) float64 {
		if math.Abs(t.Pos[i].Y-t.Pos[j].Y) > 1.5 {
			if q *= 0.7; q < 0.10 {
				return 0
			}
		}
		return q
	})
	ensureConnected(t, r)
	return t
}
