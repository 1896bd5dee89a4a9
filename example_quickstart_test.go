package scoop_test

import (
	"fmt"
	"log"
	"time"

	"scoop"
)

// Quickstart: bring up a simulated Scoop sensor network, let it build
// a storage index, and query a value range of interest.
func ExampleNewSimulation() {
	// A 30-node network sampling the synthetic indoor light workload
	// (the paper's REAL trace substitute) every 15 seconds.
	sim, err := scoop.NewSimulation(scoop.SimulationConfig{
		Nodes:  30,
		Source: scoop.SourceReal,
		Warmup: 5 * time.Minute,
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Let the routing tree form, statistics flow, and the basestation
	// build and disseminate its first storage indices.
	sim.Run(20 * time.Minute)

	fmt.Println("== storage index (value ranges → owner node) ==")
	for _, r := range sim.IndexRanges() {
		fmt.Printf("  [%3d..%3d] → node %d\n", r.Lo, r.Hi, r.Owner)
	}

	// Ask for bright readings from the last five minutes. Scoop
	// contacts only the owners of that value range instead of flooding
	// the network.
	res := sim.QueryValues(100, 150, 5*time.Minute, 30*time.Second)
	fmt.Printf("\n== query: values in [100,150] over the last 5 minutes ==\n")
	fmt.Printf("nodes contacted: %d of %d\n", res.Targets, sim.Nodes()-1)
	fmt.Printf("matching tuples: %d (carried back: %d)\n", res.Tuples, len(res.Readings))
	for i, r := range res.Readings {
		if i == 8 {
			fmt.Printf("  … and %d more\n", len(res.Readings)-8)
			break
		}
		fmt.Printf("  node %2d read %3d at t=%v\n", r.Node, r.Value, r.At.Sub(time.Time{}).Round(time.Second))
	}

	// A max-query is answered from collected summaries without any
	// radio traffic at all (paper §5.5).
	if hi, ok := sim.QueryMax(10 * time.Minute); ok {
		fmt.Printf("\nmax value in last 10 min (from summaries, zero messages): %d\n", hi)
	}

	st := sim.Stats()
	fmt.Printf("\n== run statistics ==\n")
	fmt.Printf("readings produced: %d, durably stored: %.0f%%\n", st.Produced, 100*st.DataSuccess)
	fmt.Printf("messages: %.0f (data %.0f, summary %.0f, mapping %.0f, query %.0f, reply %.0f)\n",
		st.Breakdown.Total(), st.Breakdown.Data, st.Breakdown.Summary,
		st.Breakdown.Mapping, st.Breakdown.Query, st.Breakdown.Reply)

	// Output:
	// == storage index (value ranges → owner node) ==
	//   [  0.. 26] → node 0
	//   [ 27.. 35] → node 7
	//   [ 36.. 37] → node 4
	//   [ 38.. 39] → node 7
	//   [ 40.. 41] → node 6
	//   [ 42.. 44] → node 4
	//   [ 45.. 50] → node 3
	//   [ 51.. 58] → node 4
	//   [ 59.. 70] → node 8
	//   [ 71.. 75] → node 14
	//   [ 76.. 79] → node 12
	//   [ 80.. 86] → node 13
	//   [ 87.. 89] → node 15
	//   [ 90.. 90] → node 16
	//   [ 91..103] → node 23
	//   [104..106] → node 20
	//   [107..115] → node 18
	//   [116..116] → node 19
	//   [117..117] → node 29
	//   [118..121] → node 26
	//   [122..129] → node 28
	//   [130..135] → node 25
	//   [136..144] → node 24
	//   [145..150] → node 25
	//
	// == query: values in [100,150] over the last 5 minutes ==
	// nodes contacted: 12 of 29
	// matching tuples: 161 (carried back: 108)
	//   node 29 read 113 at t=18m3s
	//   node 18 read 109 at t=18m52s
	//   node 18 read 115 at t=17m22s
	//   node 18 read 114 at t=17m7s
	//   node 29 read 111 at t=19m3s
	//   node 29 read 109 at t=19m18s
	//   node 26 read 107 at t=19m11s
	//   node 26 read 107 at t=19m26s
	//   … and 100 more
	//
	// max value in last 10 min (from summaries, zero messages): 150
	//
	// == run statistics ==
	// readings produced: 1798, durably stored: 95%
	// messages: 3797 (data 1456, summary 1177, mapping 1054, query 35, reply 75)
}
