// Command scoopsim runs a single Scoop experiment — one storage policy
// over one workload on a simulated sensor network — and prints the
// message breakdown and delivery statistics.
//
// Examples:
//
//	scoopsim                                    # paper defaults (SCOOP, REAL)
//	scoopsim -policy base -source gaussian
//	scoopsim -policy local -nodes 101 -trials 5
//	scoopsim -nodepct 0.4                       # Figure 4-style node queries
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"scoop/internal/exp"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/trace"
)

// parseFlags builds the experiment configuration and the -trace path
// from argv (without the program name), writing usage and flag errors
// to errw. Separate from main so tests can drive it.
func parseFlags(args []string, errw io.Writer) (exp.Config, string, error) {
	fs := flag.NewFlagSet("scoopsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	d := exp.Default()
	wall := func(t netsim.Time) time.Duration { return time.Duration(t) * time.Millisecond }
	var policies []string
	for _, p := range policy.Names() {
		policies = append(policies, string(p))
	}
	var (
		policyF  = fs.String("policy", string(d.Policy), "storage policy: "+strings.Join(policies, ", "))
		source   = fs.String("source", d.Source, "data source: real, unique, equal, random, gaussian")
		topology = fs.String("topology", d.Topology, "topology: uniform, testbed, grid")
		nodes    = fs.Int("nodes", d.N, "network size including the basestation")
		duration = fs.Duration("duration", wall(d.Duration), "virtual run time")
		warmup   = fs.Duration("warmup", wall(d.Warmup), "tree-stabilisation period")
		sample   = fs.Duration("sample", wall(d.SampleInterval), "sensor sampling interval")
		query    = fs.Duration("query", wall(d.QueryInterval), "query interval (0 disables)")
		nodePct  = fs.Float64("nodepct", d.NodePct, "node-list queries over this fraction of nodes (<0: value-range queries)")
		trials   = fs.Int("trials", d.Trials, "independent trials to average")
		seed     = fs.Int64("seed", d.Seed, "random seed")
		traceF   = fs.String("trace", "", "write the first trial's flight-recorder events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return exp.Config{}, "", err
	}
	// Virtual time ticks in whole milliseconds, as grid files say too
	// (netsim.Time.UnmarshalText); a finer duration would be truncated.
	for _, name := range []string{"duration", "warmup", "sample", "query"} {
		if w := fs.Lookup(name).Value.(flag.Getter).Get().(time.Duration); w%time.Millisecond != 0 {
			err := fmt.Errorf("-%s %v is not a whole number of milliseconds", name, w)
			fmt.Fprintln(errw, "scoopsim:", err)
			return exp.Config{}, "", err
		}
	}
	vt := func(w time.Duration) netsim.Time { return netsim.Time(w.Milliseconds()) }
	cfg := d
	cfg.Policy, cfg.Source, cfg.Topology, cfg.N = policy.Name(*policyF), *source, *topology, *nodes
	cfg.Duration, cfg.Warmup = vt(*duration), vt(*warmup)
	cfg.SampleInterval, cfg.QueryInterval, cfg.NodePct = vt(*sample), vt(*query), *nodePct
	cfg.Trials, cfg.Seed = *trials, *seed
	return cfg, *traceF, nil
}

// run executes the experiment; with a trace path the flight recorder
// streams the first trial's events there as JSONL — one structured,
// sim-time-stamped event per line, byte-identical across runs with the
// same configuration and seed (inspect it with cmd/scoopflight).
func run(cfg exp.Config, tracePath string) (exp.Result, error) {
	if tracePath == "" {
		return exp.Run(cfg)
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		return exp.Result{}, fmt.Errorf("trace file: %w", err)
	}
	cfg.Trace = true
	cfg.TraceSinks = func(trial int) []trace.Sink {
		if trial != 0 {
			return nil // one deterministic event stream, not an interleaving
		}
		return []trace.Sink{trace.NewJSONL(tf)}
	}
	res, err := exp.Run(cfg)
	if cerr := tf.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace file: %w", cerr)
	}
	return res, err
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is the command: it parses args, runs the experiment, reports it
// to stdout and returns the exit status — 0, 1 for a configuration or
// run error, 2 for bad flags.
func cli(args []string, stdout, stderr io.Writer) int {
	cfg, tracePath, err := parseFlags(args, stderr)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		return 2
	}
	res, err := run(cfg, tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "scoopsim:", err)
		return 1
	}
	report(stdout, res)
	return 0
}

// report prints the run's message breakdown and delivery statistics,
// headed by the configuration that ran.
func report(w io.Writer, res exp.Result) {
	b, s, c := res.Breakdown, res.Stats, res.Config
	fmt.Fprintf(w, "policy=%s source=%s topology=%s nodes=%d trials=%d\n",
		c.Policy, c.Source, c.Topology, c.N, c.Trials)
	fmt.Fprintf(w, "messages (mean/trial): total=%.0f\n", b.Total())
	fmt.Fprintf(w, "  data=%.0f summary=%.0f mapping=%.0f query=%.0f reply=%.0f (beacons=%.0f)\n",
		b.Data, b.Summary, b.Mapping, b.Query, b.Reply, b.Beacon)
	if s.Produced > 0 {
		fmt.Fprintf(w, "data:   produced=%d stored=%d success=%.0f%% owner-hit=%.0f%%\n",
			s.Produced, s.StoredUnique, 100*s.DataSuccessRate(), 100*s.OwnerHitRate())
	}
	if s.QueriesIssued > 0 {
		fmt.Fprintf(w, "query:  issued=%d tuples=%d reply-success=%.0f%%\n",
			s.QueriesIssued, s.TuplesReturned, 100*s.QuerySuccessRate())
	}
	if s.IndexesBuilt > 0 {
		fmt.Fprintf(w, "index:  built=%d suppressed=%d\n", s.IndexesBuilt, s.IndexesSuppressed)
	}
	fmt.Fprintf(w, "root:   sent=%.0f received=%.0f\n", res.RootSent, res.RootRecv)
}
