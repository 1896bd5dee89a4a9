// Package workload generates the sensor-data distributions and query
// streams used in the paper's evaluation (§6): the REAL, UNIQUE,
// EQUAL, RANDOM and GAUSSIAN data sources, value-range query
// generators (1–5% of the attribute domain by default) and node-list
// query generators (the Figure 4 "% nodes queried" sweep).
//
// The paper's REAL source replays a light trace from a 50-node indoor
// deployment (the Intel lab dataset), whose relevant properties are
// strong temporal self-correlation per node and geographic correlation
// between nearby nodes. That trace file is not bundled here, so REAL
// is a synthetic generator with exactly those two properties: a shared
// slow diurnal component, per-cluster offsets, a per-node AR(1) noise
// process and occasional step events (lights switching). DESIGN.md
// documents this substitution.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"scoop/internal/netsim"
)

// Source produces the value a node samples at a virtual time. Sources
// are stateful (AR noise, spikes); all per-node state, including the
// random stream it evolves by, is confined to that node — so a node's
// sample sequence depends only on its own sampling history, never on
// how other nodes' samples interleave — the per-node stream convention
// of DESIGN.md §2. Construction (cluster layout, means) draws from a
// separate constructor stream.
type Source interface {
	// Next returns node id's sample at virtual time t.
	Next(id netsim.NodeID, t netsim.Time) int
	// Domain returns the inclusive value domain the source emits in.
	Domain() (min, max int)
	// Name returns the paper's name for the source.
	Name() string
}

// NewSource builds the named source ("real", "unique", "equal",
// "random", "gaussian") for an n-node network.
func NewSource(name string, n int, seed int64) (Source, error) {
	switch name {
	case "real":
		return NewReal(n, seed), nil
	case "unique":
		return NewUnique(n), nil
	case "equal":
		return NewEqual(), nil
	case "random":
		return NewRandom(n, seed), nil
	case "gaussian":
		return NewGaussian(n, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown source %q", name)
}

// SourceNames lists all sources in the paper's display order
// (Figure 3, right).
func SourceNames() []string {
	return []string{"unique", "equal", "real", "gaussian", "random"}
}

// Unique makes every node produce its own node ID for the whole run —
// the best case for Scoop's locality exploitation.
type Unique struct{ n int }

// NewUnique returns the UNIQUE source for an n-node network.
func NewUnique(n int) *Unique { return &Unique{n: n} }

// Next implements Source.
func (u *Unique) Next(id netsim.NodeID, _ netsim.Time) int { return int(id) }

// Domain implements Source.
func (u *Unique) Domain() (int, int) { return 0, u.n - 1 }

// Name implements Source.
func (u *Unique) Name() string { return "unique" }

// Equal makes every node produce the same constant value.
type Equal struct{}

// NewEqual returns the EQUAL source.
func NewEqual() *Equal { return &Equal{} }

// EqualValue is the constant all nodes produce under EQUAL.
const EqualValue = 50

// Next implements Source.
func (e *Equal) Next(netsim.NodeID, netsim.Time) int { return EqualValue }

// Domain implements Source. The domain is the full [0,100] range the
// paper's other synthetic sources use, so the index covers it.
func (e *Equal) Domain() (int, int) { return 0, 100 }

// Name implements Source.
func (e *Equal) Name() string { return "equal" }

// Random makes every node produce uniform values in [0,100]: no
// predictability for Scoop to exploit (paper: "degenerates into
// performance equivalent to BASE or HASH").
type Random struct{ rngs []rand.Rand }

// NewRandom returns the RANDOM source for an n-node network.
func NewRandom(n int, seed int64) *Random { return &Random{rngs: nodeStreams(n, seed)} }

// Next implements Source.
func (r *Random) Next(id netsim.NodeID, _ netsim.Time) int { return r.rngs[id].IntN(101) }

// Domain implements Source.
func (r *Random) Domain() (int, int) { return 0, 100 }

// Name implements Source.
func (r *Random) Name() string { return "random" }

// Gaussian gives each node i a mean µ_i drawn uniformly from [0,100]
// at construction; samples come from N(µ_i, 10) (variance 10, paper
// §6), clamped to the domain. Models independent stationary sensors.
type Gaussian struct {
	rngs  []rand.Rand
	means []float64
}

// NewGaussian returns the GAUSSIAN source for an n-node network.
func NewGaussian(n int, seed int64) *Gaussian {
	rng := rand.New(rand.NewPCG(uint64(seed), 0)) // constructor stream: means only
	g := &Gaussian{rngs: nodeStreams(n, seed), means: make([]float64, n)}
	for i := range g.means {
		g.means[i] = rng.Float64() * 100
	}
	return g
}

// Next implements Source.
func (g *Gaussian) Next(id netsim.NodeID, _ netsim.Time) int {
	v := g.means[id] + g.rngs[id].NormFloat64()*math.Sqrt(10)
	return clamp(int(math.Round(v)), 0, 100)
}

// Domain implements Source.
func (g *Gaussian) Domain() (int, int) { return 0, 100 }

// Name implements Source.
func (g *Gaussian) Name() string { return "gaussian" }

// Real is the synthetic stand-in for the paper's indoor light trace.
// Node values combine a shared slow "daylight" drift, a fixed offset
// per spatial cluster (nearby nodes see similar light), a per-node
// AR(1) noise process (temporal self-correlation), and occasional
// multi-sample step events (lights toggling). Domain [0,150], V≈150,
// matching the paper's "V was at about 150".
type Real struct {
	rngs     []rand.Rand
	offsets  []float64 // per-node cluster offset
	noise    []float64 // per-node AR(1) state
	spikeFor []int     // samples remaining in a step event
	spikeAmp []float64
	// knobs for ablation experiments
	ClusterSize int
	ARCoeff     float64
	SpikeProb   float64
}

// RealMax is the top of the REAL source's value domain.
const RealMax = 150

// NewReal returns the REAL source for an n-node network.
func NewReal(n int, seed int64) *Real {
	rng := rand.New(rand.NewPCG(uint64(seed), 0)) // constructor stream: cluster layout only
	r := &Real{
		rngs:        nodeStreams(n, seed),
		offsets:     make([]float64, n),
		noise:       make([]float64, n),
		spikeFor:    make([]int, n),
		spikeAmp:    make([]float64, n),
		ClusterSize: 8,
		ARCoeff:     0.9,
		SpikeProb:   0.004,
	}
	// Cluster offsets: consecutive node IDs sit in the same office in
	// testbed layouts, so they share an offset. Clusters are spread
	// into distinct bands — a corridor office is dim, a window office
	// bright — which is what gives the Intel-lab trace its geographic
	// differentiation (without it every node produces the same values
	// and there is no locality for an index to exploit).
	nClusters := (n + r.ClusterSize - 1) / r.ClusterSize
	clusterOffsets := make([]float64, nClusters)
	for i := range clusterOffsets {
		centered := float64(i) - float64(nClusters-1)/2
		clusterOffsets[i] = centered*22 + rng.NormFloat64()*4
	}
	for i := range r.offsets {
		r.offsets[i] = clusterOffsets[i/r.ClusterSize]
	}
	return r
}

// Next implements Source.
func (r *Real) Next(id netsim.NodeID, t netsim.Time) int {
	// Slow shared drift: one gentle cycle per hour, so a 40-minute run
	// sees meaningful but unhurried change without erasing the
	// per-cluster bands.
	base := 75 + 12*math.Sin(2*math.Pi*float64(t)/float64(60*netsim.Minute))
	// AR(1) temporal noise.
	i := int(id)
	rng := &r.rngs[i]
	r.noise[i] = r.ARCoeff*r.noise[i] + rng.NormFloat64()*3
	// Step events.
	if r.spikeFor[i] > 0 {
		r.spikeFor[i]--
	} else if rng.Float64() < r.SpikeProb {
		r.spikeFor[i] = 3 + rng.IntN(8)
		r.spikeAmp[i] = 25 + rng.Float64()*25
	}
	spike := 0.0
	if r.spikeFor[i] > 0 {
		spike = r.spikeAmp[i]
	}
	v := base + r.offsets[i] + r.noise[i] + spike
	return clamp(int(math.Round(v)), 0, RealMax)
}

// Domain implements Source.
func (r *Real) Domain() (int, int) { return 0, RealMax }

// Name implements Source.
func (r *Real) Name() string { return "real" }

// nodeStreams derives one independent random substream per node from a
// source seed (netsim's per-node scheme), so each node's draw sequence is
// its own. All n generators are one block, the Rands over them another.
func nodeStreams(n int, seed int64) []rand.Rand {
	pcgs := make([]rand.PCG, n)
	rngs := make([]rand.Rand, n)
	for i := range rngs {
		rngs[i] = netsim.NodeStream(&pcgs[i], seed, netsim.NodeID(i))
	}
	return rngs
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
