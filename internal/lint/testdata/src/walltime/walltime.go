// Package walltime is a scooplint fixture: wall-clock reads in
// simulation code. Loaded without the deterministic flag — the rule
// binds every package except the wall-clock accounting ones
// (prof, sweep) and tests.
package walltime

import "time"

// stamp reads the wall clock — the canonical violation: behaviour now
// depends on the machine, not the seed.
func stamp() time.Time {
	return time.Now() // want `wall-clock time\.Now`
}

// elapsed uses the Since sugar; same clock underneath.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock time\.Since`
}

// deadline uses Until; still the wall clock.
func deadline(t1 time.Time) time.Duration {
	return time.Until(t1) // want `wall-clock time\.Until`
}

// indirect takes the function value without calling it — flagged all
// the same (it will be called somewhere).
func indirect() func() time.Time {
	return time.Now // want `wall-clock time\.Now`
}

// arithmetic on durations and explicit times never reads the clock.
func clean(d time.Duration) time.Duration {
	return 3*time.Second + d.Round(time.Millisecond)
}

// allowedProbe is a reviewed measurement-only read, like the
// index.BuildStats wall probe that never enters artifacts.
func allowedProbe() time.Time {
	return time.Now() //scoop:allow walltime measurement-only probe, never enters artifacts
}
