package exp

import (
	"os"
	"testing"
)

// TestMain force-enables the whole-run invariant checker (checker, a
// sink of each trial's flight recorder) for every experiment this test
// binary runs — conservation of readings, no aggregate double-count,
// index monotonicity — so each existing exp test doubles as an
// invariant test. Violations surface as Run errors and fail whichever
// test triggered them.
func TestMain(m *testing.M) {
	ForceInvariants = true
	os.Exit(m.Run())
}
