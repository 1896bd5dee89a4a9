//go:build !race

package sweep

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
