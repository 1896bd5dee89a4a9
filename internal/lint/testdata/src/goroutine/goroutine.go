// Package goroutine is a scooplint fixture: goroutines spawned in
// deterministic packages. Loaded with the deterministic flag forced
// on.
package goroutine

// spawn leaks a goroutine into simulation code: event-loop state is
// unsynchronised, so this is a race and a determinism hole.
func spawn(work func()) {
	go work() // want `go statement in a deterministic package`
}

// spawnLoop is the fan-out variant of the same defect.
func spawnLoop(n int, work func(int)) {
	for i := 0; i < n; i++ {
		go func(i int) { // want `go statement in a deterministic package`
			work(i)
		}(i)
	}
}

// deferred closures and function values are fine — only the `go`
// keyword hands work to another goroutine.
func notSpawned(work func()) {
	defer work()
	f := work
	f()
}

// rowWorker is the blessed pattern: a reviewed confinement argument
// on the spawn site, as the index's reindex fork-join does.
func rowWorker(run func()) {
	//scoop:allow goroutine worker writes only its own rows; the join orders every read after it
	go run()
}
