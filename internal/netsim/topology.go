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

// Topology describes node placement and pairwise link quality.
//
// Quality[i][j] is the probability that a single transmission by i is
// heard by j (0 = no link). Links are asymmetric: Quality[i][j] need
// not equal Quality[j][i], matching the paper's simulated topology
// ("connections are slightly asymmetric, as in most real wireless
// networks"; audible pairs have loss rates from ~25% to ~90%).
//
// A topology is immutable once a Network is created on it: the link
// tables (OutLinks and the arrays beside it) are derived from Quality
// exactly once and the network keeps its own per-link state parallel to
// them, so the hot transmit fan-out never rescans the N×N matrix.
// Mutate Quality only before NewNetwork, and call InvalidateLinks if
// OutLinks was already used.
type Topology struct {
	N       int
	Pos     []Point
	Quality [][]float64

	// links holds every audible directed link, grouped by source in
	// ascending source then destination order; a link's position in it
	// is its link index, the key of everything kept per link. outLinks[i]
	// is node i's group, a slice of links starting at linkBase[i] —
	// built once, reused for every transmission (DESIGN.md §12). The
	// ascending order is also a determinism contract: the transmit loop
	// draws per-receiver randomness in exactly this order, so it must
	// match a fresh scan of Quality row by row. revLink[li] is the index
	// of li's reverse link (the one an ack travels), -1 for a one-way
	// link.
	links    []Link
	outLinks [][]Link
	linkBase []int32
	revLink  []int32
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
	t := &Topology{N: n, Pos: make([]Point, n), Quality: make([][]float64, n)}
	for i := range t.Quality {
		t.Quality[i] = make([]float64, n)
	}
	return t
}

// OutLinks returns node i's audible out-links in ascending destination
// order. The lists for all nodes are built on first call and reused;
// call InvalidateLinks after mutating Quality by hand.
func (t *Topology) OutLinks(i NodeID) []Link {
	if t.outLinks == nil {
		t.buildOutLinks()
	}
	return t.outLinks[i]
}

func (t *Topology) buildOutLinks() {
	t.outLinks = make([][]Link, t.N)
	t.linkBase = make([]int32, t.N)
	// One backing array for all lists keeps them cache-adjacent.
	total := 0
	for i := 0; i < t.N; i++ {
		for j := 0; j < t.N; j++ {
			if i != j && t.Quality[i][j] > 0 {
				total++
			}
		}
	}
	backing := make([]Link, 0, total)
	for i := 0; i < t.N; i++ {
		start := len(backing)
		for j := 0; j < t.N; j++ {
			if i != j && t.Quality[i][j] > 0 {
				backing = append(backing, Link{Dst: NodeID(j), Quality: t.Quality[i][j]})
			}
		}
		t.linkBase[i] = int32(start)
		t.outLinks[i] = backing[start:len(backing):len(backing)]
	}
	t.links = backing
	t.revLink = make([]int32, total)
	for i := 0; i < t.N; i++ {
		for k, lk := range t.outLinks[i] {
			t.revLink[int(t.linkBase[i])+k] = t.linkIndex(lk.Dst, NodeID(i))
		}
	}
}

// linkIndex returns the link index of src→dst, -1 when dst cannot hear
// src. A binary search of src's out-links: the per-frame paths carry
// link indices instead (Network.transmit).
func (t *Topology) linkIndex(src, dst NodeID) int32 {
	k, ok := slices.BinarySearchFunc(t.OutLinks(src), dst,
		func(lk Link, dst NodeID) int { return cmp.Compare(lk.Dst, dst) })
	if !ok {
		return -1
	}
	return t.linkBase[src] + int32(k)
}

// InvalidateLinks drops the cached link tables; the next OutLinks call
// rebuilds them from Quality. Tests that edit Quality after first use
// need this — the stock generators never do — and only before a Network
// is created on the topology.
func (t *Topology) InvalidateLinks() { t.outLinks = nil }

// Neighbors returns the nodes that can hear i at all.
func (t *Topology) Neighbors(i NodeID) []NodeID {
	links := t.OutLinks(i)
	out := make([]NodeID, len(links))
	for k, l := range links {
		out[k] = l.Dst
	}
	return out
}

// AvgDegreeFraction reports the mean fraction of other nodes each node
// can reach, the paper's "can communicate with 20% of the nodes" figure.
func (t *Topology) AvgDegreeFraction() float64 {
	if t.N <= 1 {
		return 0
	}
	var links int
	for i := 0; i < t.N; i++ {
		for j := 0; j < t.N; j++ {
			if i != j && t.Quality[i][j] > 0 {
				links++
			}
		}
	}
	return float64(links) / float64(t.N*(t.N-1))
}

// linkQuality derives the delivery probability of a directed link from
// distance, with lognormal-ish jitter and asymmetry. Pairs beyond
// rng*range have no link. Audible links are clamped into [minQ, maxQ],
// reproducing the paper's 25–90% loss band (quality 0.10–0.75).
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

// fillLinks populates Quality for every pair from positions. Asymmetry
// is injected by drawing independent jitter per direction and then
// nudging one direction of each pair slightly ("slightly asymmetric").
func fillLinks(t *Topology, radioRange float64, r *rand.Rand) {
	for i := 0; i < t.N; i++ {
		for j := i + 1; j < t.N; j++ {
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
			t.Quality[i][j] = qf
			t.Quality[j][i] = qr
		}
	}
}

// ensureConnected raises the quality of the best dead link out of any
// node with no links toward the base component, so the routing tree can
// always form. Topology generators call this after the random draw.
func ensureConnected(t *Topology, r *rand.Rand) {
	for {
		reach := make([]bool, t.N)
		reach[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for j := 0; j < t.N; j++ {
				if !reach[j] && t.Quality[i][j] > 0 && t.Quality[j][i] > 0 {
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
		t.Quality[bestI][bestJ] = q
		t.Quality[bestJ][bestI] = q * (0.9 + r.Float64()*0.2)
	}
}

// GridTopology places n nodes on a jittered grid with the basestation
// at one corner, the layout of typical indoor testbeds. radioRange is
// expressed in grid spacings (e.g. 2.5 means a node hears nodes up to
// 2.5 cells away).
func GridTopology(n int, radioRangeCells float64, seed int64) *Topology {
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	t := NewTopology(n)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		row, col := i/cols, i%cols
		t.Pos[i] = Point{
			X: float64(col) + (r.Float64()-0.5)*0.3,
			Y: float64(row) + (r.Float64()-0.5)*0.3,
		}
	}
	fillLinks(t, radioRangeCells, r)
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
	r := rand.New(rand.NewPCG(uint64(seed), 0))
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
	fillLinks(t, radioRange, r)
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
	r := rand.New(rand.NewPCG(uint64(seed), 0))
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
	// paper's ~20% of nodes.
	fillLinks(t, 4.0, r)
	// Interior walls: attenuate cross-row links a bit.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || t.Quality[i][j] == 0 {
				continue
			}
			if math.Abs(t.Pos[i].Y-t.Pos[j].Y) > 1.5 {
				t.Quality[i][j] *= 0.7
				if t.Quality[i][j] < 0.10 {
					t.Quality[i][j] = 0
				}
			}
		}
	}
	// Wall attenuation can produce one-way pairs; make audibility mutual.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if t.Quality[i][j] > 0 && t.Quality[j][i] == 0 {
				t.Quality[i][j] = 0
			}
		}
	}
	ensureConnected(t, r)
	return t
}
