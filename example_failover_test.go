package scoop_test

import (
	"fmt"
	"log"
	"time"

	"scoop"
)

// Failover: sensor networks lose nodes. This example kills the node
// that owns the most of the value domain mid-run and shows that the
// network keeps storing data: readings for the dead owner's values
// fall back to the basestation (routing rule 6). The basestation never
// discards a summary (paper §5.2), so the dead node's last statistics
// stay in the index input: later indexes keep assigning it ranges, and
// may give it more.
func ExampleSimulation_KillNode() {
	sim, err := scoop.NewSimulation(scoop.SimulationConfig{
		Nodes:  30,
		Source: scoop.SourceReal,
		Warmup: 5 * time.Minute,
		Seed:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim.Run(18 * time.Minute)

	victim, width := biggestOwner(sim)
	if victim <= 0 {
		log.Fatal("no non-base owner found")
	}
	before := sim.Stats()
	fmt.Printf("killing node %d, owner of %d values\n", victim, width)
	sim.KillNode(victim)

	// Run through several remaps.
	sim.Run(15 * time.Minute)

	after := sim.Stats()
	fmt.Printf("\nduring the outage the network kept working:\n")
	fmt.Printf("  readings produced: %d → %d\n", before.Produced, after.Produced)
	fmt.Printf("  data success rate: %.0f%% → %.0f%%\n",
		100*before.DataSuccess, 100*after.DataSuccess)
	fmt.Printf("  dead node now owns %d values: the basestation keeps its last summary\n",
		ownedBy(sim, victim))

	// Queries still work: the owners that remain answer.
	res := sim.QueryValues(0, 150, 5*time.Minute, 30*time.Second)
	fmt.Printf("  full-domain query: %d targets, %d tuples\n", res.Targets, res.Tuples)

	// Output:
	// killing node 7, owner of 14 values
	//
	// during the outage the network kept working:
	//   readings produced: 1508 → 3188
	//   data success rate: 93% → 97%
	//   dead node now owns 33 values: the basestation keeps its last summary
	//   full-domain query: 24 targets, 477 tuples
}

// biggestOwner returns the non-base node owning the widest slice of
// the domain under the current index, the lowest id on a tie.
func biggestOwner(sim *scoop.Simulation) (node, width int) {
	for n := 1; n < sim.Nodes(); n++ {
		if w := ownedBy(sim, n); w > width {
			node, width = n, w
		}
	}
	return node, width
}

// ownedBy returns how many values the current index assigns to node.
func ownedBy(sim *scoop.Simulation, node int) int {
	w := 0
	for _, r := range sim.IndexRanges() {
		if r.Owner == node {
			w += r.Hi - r.Lo + 1
		}
	}
	return w
}
