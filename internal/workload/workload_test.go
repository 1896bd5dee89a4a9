package workload

import (
	"math"
	"testing"

	"scoop/internal/netsim"
)

func TestNewSourceNames(t *testing.T) {
	for _, name := range SourceNames() {
		s, err := NewSource(name, 63, 1)
		if err != nil {
			t.Fatalf("NewSource(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("source %q reports name %q", name, s.Name())
		}
		lo, hi := s.Domain()
		if hi <= lo {
			t.Fatalf("source %q has empty domain [%d,%d]", name, lo, hi)
		}
	}
	if _, err := NewSource("bogus", 63, 1); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestAllSourcesStayInDomain(t *testing.T) {
	for _, name := range SourceNames() {
		s, _ := NewSource(name, 63, 7)
		lo, hi := s.Domain()
		for i := 0; i < 2000; i++ {
			id := netsim.NodeID(i % 63)
			v := s.Next(id, netsim.Time(i)*15*netsim.Second)
			if v < lo || v > hi {
				t.Fatalf("source %q emitted %d outside [%d,%d]", name, v, lo, hi)
			}
		}
	}
}

func TestUniqueIsNodeID(t *testing.T) {
	s := NewUnique(63)
	for id := netsim.NodeID(0); id < 63; id++ {
		if v := s.Next(id, 0); v != int(id) {
			t.Fatalf("unique(%d) = %d", id, v)
		}
	}
}

func TestEqualIsConstant(t *testing.T) {
	s := NewEqual()
	for i := 0; i < 100; i++ {
		if s.Next(netsim.NodeID(i%5), netsim.Time(i)) != EqualValue {
			t.Fatal("EQUAL emitted a different value")
		}
	}
}

func TestRandomCoversDomain(t *testing.T) {
	s := NewRandom(16, 3)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[s.Next(1, 0)] = true
	}
	if len(seen) < 90 {
		t.Fatalf("random hit only %d distinct values", len(seen))
	}
}

func TestGaussianCentersOnMean(t *testing.T) {
	s := NewGaussian(10, 5)
	for id := netsim.NodeID(0); id < 10; id++ {
		sum := 0.0
		const samples = 500
		for i := 0; i < samples; i++ {
			sum += float64(s.Next(id, 0))
		}
		mean := sum / samples
		want := s.means[id]
		// Clamping skews edge means slightly; tolerate 3 units.
		if math.Abs(mean-want) > 3 {
			t.Fatalf("node %d sample mean %f, node mean %f", id, mean, want)
		}
	}
}

func TestGaussianVarianceRoughlyTen(t *testing.T) {
	s := NewGaussian(1, 6)
	// Pick a node whose mean is interior so clamping is negligible.
	if s.means[0] < 20 || s.means[0] > 80 {
		s = NewGaussian(1, 8)
	}
	var sum, sq float64
	const n = 4000
	for i := 0; i < n; i++ {
		v := float64(s.Next(0, 0))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 6 || variance > 15 {
		t.Fatalf("variance = %f, want ≈10", variance)
	}
}

// The REAL substitute must exhibit the two properties the paper's
// evaluation depends on: temporal self-correlation (a node's next
// value is near its last) and spatial correlation (same-cluster nodes
// are closer in value than cross-cluster nodes on average).
func TestRealTemporalCorrelation(t *testing.T) {
	s := NewReal(63, 9)
	var diffSelf, diffRand float64
	prev := map[netsim.NodeID]int{}
	rnd := NewRandom(63, 10)
	prevRand := 0
	n := 0
	for i := 0; i < 2000; i++ {
		tm := netsim.Time(i) * 15 * netsim.Second
		id := netsim.NodeID(i % 63)
		v := s.Next(id, tm)
		if p, ok := prev[id]; ok {
			diffSelf += math.Abs(float64(v - p))
			rv := rnd.Next(id, tm)
			diffRand += math.Abs(float64(rv - prevRand))
			prevRand = rv
			n++
		}
		prev[id] = v
	}
	if diffSelf/float64(n) >= diffRand/float64(n) {
		t.Fatalf("REAL self-step %.1f not smaller than RANDOM's %.1f",
			diffSelf/float64(n), diffRand/float64(n))
	}
}

func TestRealSpatialCorrelation(t *testing.T) {
	s := NewReal(64, 11)
	// Sample all nodes at one instant several times; same-cluster
	// pairs must be closer on average than random pairs.
	var same, cross float64
	var nSame, nCross int
	for round := 0; round < 30; round++ {
		tm := netsim.Time(round) * 15 * netsim.Second
		vals := make([]int, 64)
		for id := 0; id < 64; id++ {
			vals[id] = s.Next(netsim.NodeID(id), tm)
		}
		for i := 0; i < 64; i++ {
			for j := i + 1; j < 64; j++ {
				d := math.Abs(float64(vals[i] - vals[j]))
				if i/s.ClusterSize == j/s.ClusterSize {
					same += d
					nSame++
				} else {
					cross += d
					nCross++
				}
			}
		}
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Fatalf("same-cluster distance %.1f not below cross-cluster %.1f",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestRealDeterminism(t *testing.T) {
	a, b := NewReal(10, 42), NewReal(10, 42)
	for i := 0; i < 200; i++ {
		id := netsim.NodeID(i % 10)
		tm := netsim.Time(i) * netsim.Second
		if a.Next(id, tm) != b.Next(id, tm) {
			t.Fatal("REAL not deterministic for equal seeds")
		}
	}
}

func TestRangeGenWidths(t *testing.T) {
	g := NewRangeGen(0, 149, 1)
	for i := 0; i < 500; i++ {
		q := g.Next(10 * netsim.Minute)
		if q.IsNodeQuery() {
			t.Fatal("range generator produced node query")
		}
		w := q.ValueHi - q.ValueLo + 1
		if w < 1 || w > 8 { // 5% of 150 = 7.5
			t.Fatalf("width %d outside 1..8", w)
		}
		if q.ValueLo < 0 || q.ValueHi > 149 {
			t.Fatalf("range [%d,%d] outside domain", q.ValueLo, q.ValueHi)
		}
		if q.TimeHi != 10*netsim.Minute || q.TimeLo >= q.TimeHi {
			t.Fatalf("bad time range [%d,%d]", q.TimeLo, q.TimeHi)
		}
	}
}

func TestRangeGenEarlyTimesClamp(t *testing.T) {
	g := NewRangeGen(0, 100, 2)
	q := g.Next(netsim.Second)
	if q.TimeLo != 0 {
		t.Fatalf("TimeLo = %d, want clamp to 0", q.TimeLo)
	}
}

func TestNodePctGen(t *testing.T) {
	g := NewNodePctGen(63, 0.25, 3)
	q := g.Next(10 * netsim.Minute)
	if !q.IsNodeQuery() {
		t.Fatal("node generator produced range query")
	}
	want := int(62*0.25 + 0.5)
	if len(q.Nodes) != want {
		t.Fatalf("queried %d nodes, want %d", len(q.Nodes), want)
	}
	seen := map[netsim.NodeID]bool{}
	for _, id := range q.Nodes {
		if id == 0 {
			t.Fatal("basestation in node query")
		}
		if seen[id] {
			t.Fatal("duplicate node in query")
		}
		seen[id] = true
	}
}

func TestNodePctGenBounds(t *testing.T) {
	if got := len(NewNodePctGen(63, 0, 4).Next(0).Nodes); got != 1 {
		t.Fatalf("pct 0 queried %d nodes, want 1 minimum", got)
	}
	if got := len(NewNodePctGen(63, 1.5, 5).Next(0).Nodes); got != 62 {
		t.Fatalf("pct >1 queried %d nodes, want all 62", got)
	}
}

// TestNodeStreamsOneBlock: a source's per-node streams are two slices —
// the generators and the Rands over them — not two objects a node, so
// constructing any source allocates a handful of objects whatever N is.
// On the parent commit this test fails with 8 002 objects for RANDOM at
// N = 4 000 (a 4.9 KB table and a Rand per node).
func TestNodeStreamsOneBlock(t *testing.T) {
	for _, name := range SourceNames() {
		objects := testing.AllocsPerRun(3, func() {
			if _, err := NewSource(name, 4000, 1); err != nil {
				t.Fatal(err)
			}
		})
		if objects > 10 {
			t.Errorf("NewSource(%q) allocates %.0f objects at N = 4000, want at most 10", name, objects)
		}
	}
}
