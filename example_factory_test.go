package scoop_test

import (
	"fmt"
	"log"
	"math/rand/v2"
	"slices"
	"time"

	"scoop"
)

const (
	machines  = 40
	faulty1   = 7  // worn bearing: frequent high-class vibration
	faulty2   = 23 // intermittent fault
	highClass = 16
)

// Factory monitoring: the paper's motivating application (§1). Battery
// powered motes on factory equipment classify vibration into classes
// 1–20; most machines hum along in low classes, while a couple of
// worn bearings produce high-class events. Maintenance staff
// occasionally ask "which machines vibrated in class ≥ 16 recently?"
//
// A custom Sampler stands in for the classifier. Scoop gives each
// class range one owner machine, chosen from the statistics the
// machines report, so the maintenance query contacts only the owners
// of the high classes instead of flooding the floor.
func ExampleSimulationConfig_sampler() {
	rng := rand.New(rand.NewPCG(99, 0))

	// Vibration classifier: class 1-20 per machine per sample window.
	sampler := func(node int, elapsed time.Duration) int {
		switch node {
		case faulty1:
			return 14 + rng.IntN(7) // 14..20, chronically bad
		case faulty2:
			if rng.Float64() < 0.3 {
				return highClass + rng.IntN(5)
			}
			return 3 + rng.IntN(4)
		default:
			// Healthy machines: low classes with occasional bumps.
			if rng.Float64() < 0.05 {
				return 8 + rng.IntN(5)
			}
			return 1 + rng.IntN(5)
		}
	}

	sim, err := scoop.NewSimulation(scoop.SimulationConfig{
		Nodes:          machines + 1, // + basestation
		Topology:       scoop.TopologyGrid,
		Warmup:         5 * time.Minute,
		Seed:           99,
		SampleInterval: 10 * time.Second,
		Sampler:        sampler,
		DomainLo:       1,
		DomainHi:       20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One shift of monitoring.
	sim.Run(25 * time.Minute)

	fmt.Println("== vibration-class index ==")
	for _, r := range sim.IndexRanges() {
		fmt.Printf("  classes %2d..%2d stored on machine %d\n", r.Lo, r.Hi, r.Owner)
	}

	// Maintenance query: high-class vibration in the last 10 minutes.
	res := sim.QueryValues(highClass, 20, 10*time.Minute, 30*time.Second)
	fmt.Printf("\n== query: class ≥ %d in the last 10 minutes ==\n", highClass)
	fmt.Printf("machines contacted: %d of %d (no flooding)\n", res.Targets, machines)
	fmt.Printf("alarm readings found: %d\n", res.Tuples)

	suspects := map[int]int{}
	var ids []int
	for _, r := range res.Readings {
		if suspects[r.Node] == 0 {
			ids = append(ids, r.Node)
		}
		suspects[r.Node]++
	}
	slices.Sort(ids)
	fmt.Println("machines with high-class vibration:")
	for _, m := range ids {
		fmt.Printf("  machine %2d: %d readings carried back\n", m, suspects[m])
	}
	if _, ok := suspects[faulty1]; ok {
		fmt.Printf("→ machine %d correctly flagged (chronic fault)\n", faulty1)
	}

	st := sim.Stats()
	fmt.Printf("\nmessages spent: %.0f total for %d readings (%.2f msg/reading)\n",
		st.Breakdown.Total(), st.Produced, st.Breakdown.Total()/float64(st.Produced))
	fmt.Printf("readings stored without leaving their machine: %d of %d\n",
		st.StoredLocal, st.Produced)

	// Output:
	// == vibration-class index ==
	//   classes  1.. 5 stored on machine 18
	//   classes  6.. 7 stored on machine 23
	//   classes  8.. 8 stored on machine 25
	//   classes  9.. 9 stored on machine 23
	//   classes 10..11 stored on machine 18
	//   classes 12..20 stored on machine 23
	//
	// == query: class ≥ 16 in the last 10 minutes ==
	// machines contacted: 2 of 40 (no flooding)
	// alarm readings found: 54
	// machines with high-class vibration:
	//   machine  7: 39 readings carried back
	//   machine 23: 15 readings carried back
	// → machine 7 correctly flagged (chronic fault)
	//
	// messages spent: 11028 total for 4920 readings (2.24 msg/reading)
	// readings stored without leaving their machine: 658 of 4920
}
