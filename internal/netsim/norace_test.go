//go:build !race

package netsim

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
