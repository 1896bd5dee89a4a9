package scoop_test

import (
	"fmt"
	"log"
	"time"

	"scoop"
)

// Adaptivity: the core claim of the paper — the storage index follows
// the query/data rate balance. While queries are rare, values live on
// (or near) their producers; when the user starts querying hard, the
// basestation's next index pulls popular values toward itself
// (property P2), cutting query cost at the price of data movement.
//
// The example runs one network through a quiet phase and a busy phase
// and prints how much of the value domain the basestation owns in each.
func ExampleSimulation_IndexRanges() {
	sim, err := scoop.NewSimulation(scoop.SimulationConfig{
		Nodes:  40,
		Source: scoop.SourceReal,
		Warmup: 5 * time.Minute,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// ---- Phase 1: data-dominated (no queries at all) ----
	sim.Run(20 * time.Minute)
	fmt.Println("phase 1: 15 minutes of sampling, zero queries")
	report(sim)

	// ---- Phase 2: query storm ----
	// Hammer the hot value band every few seconds for ten minutes; the
	// periodic remap sees the query statistics and re-places those
	// values closer to the basestation.
	fmt.Println("\nphase 2: querying [60,80] every 5 seconds for 10 minutes")
	for i := 0; i < 120; i++ {
		sim.QueryValues(60, 80, 2*time.Minute, 5*time.Second)
	}
	report(sim)

	// Output:
	// phase 1: 15 minutes of sampling, zero queries
	//   basestation owns 36/151 of the domain; 0/21 of the hot band [60,80]
	//   indexes built: 4 (suppressed 0), messages so far: 4976
	//
	// phase 2: querying [60,80] every 5 seconds for 10 minutes
	//   basestation owns 45/151 of the domain; 21/21 of the hot band [60,80]
	//   indexes built: 6 (suppressed 0), messages so far: 13088
}

// report prints who owns the hot band and the basestation's share of
// the whole domain.
func report(sim *scoop.Simulation) {
	ranges := sim.IndexRanges()
	if ranges == nil {
		fmt.Println("  (no index yet)")
		return
	}
	baseOwned, domain := 0, 0
	hotAtBase, hotTotal := 0, 0
	for _, r := range ranges {
		width := r.Hi - r.Lo + 1
		domain += width
		if r.Owner == 0 {
			baseOwned += width
		}
		// Overlap with the hot band [60,80].
		lo, hi := max(r.Lo, 60), min(r.Hi, 80)
		if lo <= hi {
			hotTotal += hi - lo + 1
			if r.Owner == 0 {
				hotAtBase += hi - lo + 1
			}
		}
	}
	fmt.Printf("  basestation owns %d/%d of the domain; %d/%d of the hot band [60,80]\n",
		baseOwned, domain, hotAtBase, hotTotal)
	st := sim.Stats()
	fmt.Printf("  indexes built: %d (suppressed %d), messages so far: %.0f\n",
		st.IndexesBuilt, st.IndexSuppressed, st.Breakdown.Total())
}
