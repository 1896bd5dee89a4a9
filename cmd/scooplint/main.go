// Command scooplint runs the repo's static-analysis suite
// (internal/lint) — the machine-checked form of the DESIGN.md §2
// determinism and §12 hot-path contracts.
//
// Usage:
//
//	scooplint [-C dir] [packages...]
//
// Packages default to ./... relative to -C (default: the current
// directory). Findings print one per line as
//
//	file:line: [rule] message
//
// and the exit status is 1 when there are findings, 2 on a load
// error. Tier-1's TestRepoClean runs it over the whole repo (DESIGN.md
// §15).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scoop/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scooplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "scooplint: %v\n", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.Analyzers)
	base, err := filepath.Abs(*dir)
	if err != nil {
		base = *dir
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relPath(base, d.Pos.Filename), d.Pos.Line, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "scooplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relPath shortens file names relative to the invocation directory
// when possible, keeping output stable.
func relPath(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !filepath.IsAbs(rel) && rel != "" && !isDotDot(rel) {
		return rel
	}
	return name
}

func isDotDot(rel string) bool {
	return rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator)
}
