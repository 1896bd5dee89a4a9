package histogram

import (
	"strings"
	"testing"
)

func TestLog2Record(t *testing.T) {
	var h Log2
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Record(v)
	}
	if h.Total() != 10 {
		t.Fatalf("Total = %d, want 10", h.Total())
	}
	if h.max != 1024 {
		t.Fatalf("max = %d, want 1024", h.max)
	}
	bs := h.Buckets()
	// 0 and -5 → [0,0]; 1 → [1,1]; 2,3 → [2,3]; 4,7 → [4,7];
	// 8 → [8,15]; 1023 → [512,1023]; 1024 → [1024,2047].
	want := []Log2Bucket{
		{0, 0, 2}, {1, 1, 1}, {2, 3, 2}, {4, 7, 2},
		{8, 15, 1}, {512, 1023, 1}, {1024, 2047, 1},
	}
	if len(bs) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", bs, want)
	}
	for i, b := range bs {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestLog2Quantile(t *testing.T) {
	var h Log2
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %d, want 0", h.Quantile(0.5))
	}
	for i := 0; i < 99; i++ {
		h.Record(1) // bucket [1,1]
	}
	h.Record(1 << 20)
	if got := h.Quantile(0.50); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 = %d, want 1 (99 of 100 samples are 1)", got)
	}
	if got := h.Quantile(1.0); got != Log2Bound(21) {
		t.Fatalf("p100 = %d, want %d", got, Log2Bound(21))
	}
}

func TestLog2Bound(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 1, 2: 3, 10: 1023, 63: int64(^uint64(0) >> 1)}
	for k, want := range cases {
		if got := Log2Bound(k); got != want {
			t.Fatalf("Log2Bound(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestLog2RecordNoAlloc(t *testing.T) {
	var h Log2
	allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func TestLog2WriteTable(t *testing.T) {
	var h Log2
	h.Record(3)
	h.Record(3)
	h.Record(100)
	var sb strings.Builder
	if err := h.WriteTable(&sb, "ms"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2..3", "64..127", "samples=3", "max=100ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
