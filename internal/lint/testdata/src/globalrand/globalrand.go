// Package globalrand is a scooplint fixture: process-global and
// constant-seeded randomness in deterministic packages. Loaded with
// the deterministic flag forced on.
package globalrand

import "math/rand/v2"

// draw uses the process-global source: two trials sharing the
// process would perturb each other's streams.
func draw() int {
	return rand.IntN(10) // want `process-global source`
}

// shuffle is the same defect through a different entry point.
func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want `process-global source`
		xs[i], xs[j] = xs[j], xs[i]
	})
}

// generic is v2's type-parameterised draw, global like the rest.
func generic() int64 {
	return rand.N[int64](10) // want `process-global source`
}

// value without a call is still a reference to the global source.
func picker() func() float64 {
	return rand.Float64 // want `process-global source`
}

// fixedSeed decouples this stream from the trial seed: every trial,
// whatever its seed, gets the same sequence here.
func fixedSeed() *rand.Rand {
	return rand.New(rand.NewPCG(42, 7)) // want `constant seed`
}

// derivedConst is still a compile-time constant underneath.
func derivedConst() *rand.Rand {
	const base = 6
	return rand.New(rand.NewPCG(base*7, base)) // want `constant seed`
}

// fixedKey is the same defect on the other generator.
func fixedKey() *rand.Rand {
	return rand.New(rand.NewChaCha8([32]byte{1, 2, 3})) // want `constant seed`
}

// seeded is the blessed pattern: the seed flows in from the trial, and
// a constant second word only names the stream.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0))
}

// derived seeds (per-cell offsets) are fine too — not constants.
func derived(seed int64, cell int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)*1000, uint64(cell)))
}

// byValue seeds a generator held inline, the per-node form.
func byValue(p *rand.PCG, seed uint64) rand.Rand {
	p.Seed(seed, 1)
	return *rand.New(p)
}

// explicit streams are the whole point: methods on *rand.Rand are
// never flagged, and a Zipf draws from the stream it is given.
func use(r *rand.Rand) uint64 {
	return uint64(r.IntN(10)) + uint64(r.Int64N(5)) + rand.NewZipf(r, 1.1, 1, 100).Uint64()
}

// allowedJitter is a reviewed exception (e.g. non-simulation tooling
// living in a deterministic package for packaging reasons).
func allowedJitter() float64 {
	return rand.Float64() //scoop:allow globalrand operator-facing jitter, never inside a trial
}
