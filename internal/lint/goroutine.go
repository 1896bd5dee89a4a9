package lint

import "go/ast"

// Goroutine flags every `go` statement in a deterministic package.
// Simulation code is single-goroutine by contract: event-loop state,
// per-node RNG streams and trace recorders are all unsynchronised, so
// an unreviewed goroutine is a data race and a determinism hole at
// once. There are two sanctioned seams (DESIGN.md §15):
//
//   - the reindex fork-join (internal/index's parallelFor), whose
//     workers write disjoint rows and are joined before any is read;
//   - the flight recorder's JSONL encoder (internal/trace), which
//     touches only the event blocks handed to it and the sink's writer,
//     each handoff ordered by a channel receive.
//
// Each site carries a //scoop:allow goroutine annotation naming its
// argument, which is exactly the review this rule forces.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "goroutine spawned in a deterministic package without a reviewed confinement argument (DESIGN.md §15)",
	Run: func(pass *Pass) {
		if !pass.Deterministic {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement in a deterministic package: simulation state is unsynchronised, so concurrency needs a reviewed confinement argument (DESIGN.md §15)")
				}
				return true
			})
		}
	},
}
