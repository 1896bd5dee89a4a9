// Command scoopsweep runs a parameter-sweep grid — the cross-product
// of storage policy × topology × size × loss × churn × any further
// cell field × workload source — on a bounded worker pool, writes a
// deterministic JSON artifact and prints the grid's tables from it.
// The grid is a file (sweep.ReadGrid; the committed ones are
// testdata/*.grid.json), not flags:
//
//	scoopsweep                                     # sweep.Default(), 24 cells
//	scoopsweep testdata/sweep-dynamics.grid.json   # a declared grid
//	scoopsweep testdata/fig-4.grid.json            # the paper's Figure 4
//	scoopsweep -parallel 8 -out sweep.json grid.json
//	scoopsweep -check testdata/sweep-ci-baseline.json testdata/sweep-ci.grid.json
//
// The same grid always produces byte-identical artifacts, whatever
// -parallel is, so -check gates on byte equality with a
// committed artifact and prints the differing cells when it fails;
// -out <artifact> regenerates one after an intentional protocol change.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"scoop/internal/sweep"
)

// cli holds everything parsed from the command line.
type cli struct {
	grid     sweep.Grid
	parallel int
	out      string
	check    string
}

// parseArgs builds the sweep configuration from argv (without the
// program name), reading the grid file if one is named. Usage and
// error text go to errw. Kept separate from main so tests can drive it.
func parseArgs(args []string, errw io.Writer) (cli, error) {
	fs := flag.NewFlagSet("scoopsweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: scoopsweep [flags] [grid.json]   (no file: the default 24-cell grid)")
		fs.PrintDefaults()
	}
	parallel := fs.Int("parallel", runtime.NumCPU(), "max cells running concurrently")
	out := fs.String("out", "", "artifact path (default sweep-<name>.json)")
	check := fs.String("check", "", "committed artifact the fresh one must equal byte for byte (exit 1 with a per-cell diff otherwise)")
	if err := fs.Parse(args); err != nil {
		return cli{}, err
	}

	g := sweep.Default()
	switch fs.NArg() {
	case 0:
	case 1:
		var err error
		if g, err = sweep.ReadGrid(fs.Arg(0)); err != nil {
			return cli{}, err
		}
	default:
		return cli{}, fmt.Errorf("unexpected arguments after the grid file: %s", strings.Join(fs.Args()[1:], " "))
	}

	path := *out
	if path == "" {
		path = "sweep-" + g.Name + ".json"
	}
	return cli{grid: g, parallel: *parallel, out: path, check: *check}, nil
}

// run executes the sweep and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "scoopsweep:", err)
		return 2
	}
	var want sweep.Report
	var committed []byte
	if c.check != "" {
		// Before the run: a mistyped path should not cost a sweep, and
		// -out may name the same file.
		if want, err = sweep.ReadFile(c.check); err == nil {
			committed, err = os.ReadFile(c.check)
		}
		if err != nil {
			fmt.Fprintln(stderr, "scoopsweep:", err)
			return 1
		}
	}

	cells := c.grid.Cells()
	fmt.Fprintf(stderr, "scoopsweep: %d cells, %d workers, seed %d\n",
		len(cells), c.parallel, c.grid.Seed)
	start := time.Now() //scoop:allow walltime operator progress line on stderr, outside any simulation
	rep, err := sweep.Run(c.grid, sweep.Options{
		Parallel: c.parallel,
		Progress: func(r sweep.CellResult) {
			line := fmt.Sprintf("  [%3d/%d] %-40s msgs=%8.0f data=%.2f wall=%.0fms",
				r.Index+1, len(cells), r.Key(), r.Msgs, r.DataSuccess, r.WallMS)
			if r.Faults != "" || r.Retry {
				line += fmt.Sprintf(" compl=%.3f retries=%d", r.Completeness, r.Retries)
			}
			if r.ReindexBuilds > 0 {
				// Reindex cost: values recomputed vs total across the
				// cell's rebuilds, SPT sources relaxed, wall time.
				line += fmt.Sprintf(" reindex=%d/%dv/%dspt/%.0fms",
					r.ReindexRecomputed, r.ReindexValues, r.ReindexSPT, r.ReindexWallMS)
			}
			fmt.Fprintln(stderr, line)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "scoopsweep:", err)
		return 1
	}
	//scoop:allow walltime operator progress line on stderr, outside any simulation
	fmt.Fprintf(stderr, "scoopsweep: grid done in %.1fs\n", time.Since(start).Seconds())

	if err := sweep.WriteFile(c.out, rep); err != nil {
		fmt.Fprintln(stderr, "scoopsweep:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d cells)\n", c.out, len(rep.Cells))
	for _, t := range c.grid.Tables {
		fmt.Fprint(stdout, "\n"+t.Render(rep))
	}

	if c.check != "" {
		got, err := os.ReadFile(c.out)
		if err != nil {
			fmt.Fprintln(stderr, "scoopsweep:", err)
			return 1
		}
		if !bytes.Equal(got, committed) {
			fmt.Fprintf(stderr, "scoopsweep: %s differs from %s:\n", c.out, c.check)
			for _, line := range sweep.Diff(rep, want) {
				fmt.Fprintln(stderr, "  "+line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "%s reproduces %s byte for byte\n", c.out, c.check)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
