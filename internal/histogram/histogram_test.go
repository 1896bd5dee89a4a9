package histogram

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuildPaperExample(t *testing.T) {
	// Paper §5.2: min=1, max=100, nBins=10 → 8 readings between 50 and
	// 60 land in the 6th bin (n=5).
	values := []int{1, 100}
	for i := 0; i < 8; i++ {
		values = append(values, 51+i) // 51..58, inside [51,60]
	}
	h := Build(values, 10)
	if h.Min != 1 || h.Max != 100 {
		t.Fatalf("min=%d max=%d", h.Min, h.Max)
	}
	if h.BinWidth() != 10 {
		t.Fatalf("bin width = %d, want 10", h.BinWidth())
	}
	if h.Counts[5] != 8 {
		t.Fatalf("bin 5 = %d, want 8", h.Counts[5])
	}
}

func TestBuildEmpty(t *testing.T) {
	h := Build(nil, 10)
	if !h.Empty() {
		t.Fatal("empty build not Empty")
	}
	if h.Prob(5) != 0 {
		t.Fatal("empty histogram has nonzero probability")
	}
	if h.Total() != 0 || h.BinWidth() != 0 {
		t.Fatal("empty histogram has mass")
	}
}

func TestBuildSingleValue(t *testing.T) {
	h := Build([]int{42, 42, 42}, 10)
	if h.Min != 42 || h.Max != 42 {
		t.Fatalf("min=%d max=%d", h.Min, h.Max)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	// Width clamps to 1; all mass in bin 0, P(42) = 1.
	if p := h.Prob(42); math.Abs(p-1) > 1e-9 {
		t.Fatalf("P(42) = %f, want 1", p)
	}
	if h.Prob(41) != 0 || h.Prob(43) != 0 {
		t.Fatal("probability leaked outside observed value")
	}
}

func TestProbOutsideRange(t *testing.T) {
	h := Build([]int{10, 20, 30}, 5)
	if h.Prob(9) != 0 {
		t.Fatal("P below min nonzero")
	}
	if h.Prob(31) != 0 {
		t.Fatal("P above max nonzero")
	}
}

func TestTotalCountsAllReadings(t *testing.T) {
	vals := []int{3, 3, 7, 9, 100, 42, 42}
	h := Build(vals, 10)
	if h.Total() != len(vals) {
		t.Fatalf("total = %d, want %d", h.Total(), len(vals))
	}
}

func TestBuildPanicsOnBadBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]int{1}, 0)
}

// Property: probability mass integrates to ~1 over the observed domain.
// Summing P(v) for every integer v in [Min, Min+nBins*w) must give 1
// because each bin contributes (count/total) spread uniformly over w
// integer values.
func TestProbMassProperty(t *testing.T) {
	f := func(raw []uint8, binSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		nBins := int(binSeed%16) + 1
		vals := make([]int, len(raw))
		for i, r := range raw {
			vals[i] = int(r)
		}
		h := Build(vals, nBins)
		w := h.BinWidth()
		mass := 0.0
		for v := h.Min; v < h.Min+w*nBins; v++ {
			mass += h.Prob(v)
		}
		return math.Abs(mass-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every observed value has nonzero probability.
func TestObservedValuesHaveMass(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		for i, r := range raw {
			vals[i] = int(r)
		}
		h := Build(vals, 10)
		for _, v := range vals {
			if h.Prob(v) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Total equals len(input); counts never lose readings to
// rounding at the top bin.
func TestNoReadingLostProperty(t *testing.T) {
	f := func(raw []uint8, binSeed uint8) bool {
		nBins := int(binSeed%16) + 1
		vals := make([]int, len(raw))
		for i, r := range raw {
			vals[i] = int(r)
		}
		h := Build(vals, nBins)
		if len(vals) == 0 {
			return h.Empty()
		}
		return h.Total() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProbUniformWithinBin(t *testing.T) {
	// 10 readings of value 5 with range [0,99]: bin 0 spans 0..9, so
	// P(v) = 1/10 for v in 0..9 and 0 elsewhere.
	vals := []int{0, 99}
	for i := 0; i < 98; i++ {
		vals = append(vals, 5)
	}
	h := Build(vals, 10)
	p5 := h.Prob(5)
	p7 := h.Prob(7)
	if math.Abs(p5-p7) > 1e-12 {
		t.Fatalf("within-bin probabilities differ: %f vs %f", p5, p7)
	}
	if p5 <= h.Prob(50) {
		t.Fatal("dense bin not more probable than sparse bin")
	}
}
