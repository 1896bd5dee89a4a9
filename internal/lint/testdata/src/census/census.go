// Package census is the export gate's fixture (TestExportCensusFixture):
// each exported name below says whether the gate reports it.
package census

// Uncalled has no caller at all: reported.
func Uncalled() {}

// TestOnly is called only from census_test.go, and tests are not
// callers: reported.
func TestOnly() {}

// Shape is used by Listed: not reported.
type Shape interface{ Area() int }

// Square is used by Listed: not reported.
type Square struct{ Side int }

// Area is called only through Shape, which never names the method:
// not reported.
func (s Square) Area() int { return s.Side * s.Side }

// Listed has no caller but an allowlist entry with a class: not
// reported.
func Listed() int { return Called([]Shape{Square{Side: 2}}) }

// Called has a product caller, Listed, and an allowlist entry: the
// entry is reported.
func Called(ss []Shape) int {
	n := 0
	for _, s := range ss {
		n += s.Area()
	}
	return n
}

// Classless has an allowlist entry without a class: the entry is
// reported.
func Classless() {}

// Guessed has an allowlist entry with an unknown class: the entry is
// reported.
func Guessed() {}
