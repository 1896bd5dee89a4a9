package lint

import (
	"go/ast"
)

// walltimeExempt lists the module-relative directories whose whole
// job is wall-clock accounting: sweep reports grid wall time to the
// operator, and prof is the wall-clock attribution profiler — wall
// time is its subject matter, quarantined behind its nil-Profiler
// default (DESIGN.md §17). Everywhere else the simulation clock (netsim.Time)
// is the only time; a stray time.Now in protocol code would tie
// behaviour — and committed artifacts — to the machine, not the seed.
var walltimeExempt = map[string]bool{
	"internal/prof":  true,
	"internal/sweep": true,
}

// walltimeFuncs are the time-package functions that read the wall
// clock. Constructors like time.Duration arithmetic and formatting
// are fine — only sampling the clock is banned.
var walltimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// Walltime bans wall-clock reads outside the accounting packages and
// tests (test files are never loaded). Measurement-only uses that
// demonstrably never reach artifacts — index.BuildStats wall probes,
// CLI progress lines — carry a //scoop:allow walltime <reason>.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "wall-clock read (time.Now/Since/Until) in simulation code (DESIGN.md §2)",
	Run: func(pass *Pass) {
		if walltimeExempt[pass.Rel] {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn := pkgFunc(pass.Info, sel)
				if fn == nil || fn.Pkg().Path() != "time" || !walltimeFuncs[fn.Name()] {
					return true
				}
				pass.Reportf(sel.Pos(), "wall-clock time.%s: a simulation is a pure function of its seed, so behaviour must only read the virtual clock (DESIGN.md §2); wall time lives in the quarantined measurement packages (internal/prof, internal/sweep — DESIGN.md §17), and other measurement-only code needs //scoop:allow walltime <reason>", fn.Name())
				return true
			})
		}
	},
}
