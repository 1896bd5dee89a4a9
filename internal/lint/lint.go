// Package lint implements scooplint, the repo's own static-analysis
// suite. It turns the determinism and hot-path contracts of
// DESIGN.md §2 and §12 — prose and benchmark gates until now — into
// machine-checked invariants that run in CI before any sweep gate.
//
// The suite is stdlib-only by construction (go/parser + go/types with
// a source importer); the module has zero dependencies and must stay
// that way. Six analyzers encode the contracts:
//
//   - maprange: no `for range` over a map in deterministic packages
//     unless the body provably only collects keys for sorting (or
//     clears the map).
//   - floatfold: no floating-point accumulation across a map-range
//     loop anywhere in the module — the exact query.latestPerNode bug
//     class that once flipped aggErr bits in committed artifacts.
//   - walltime: no time.Now/Since/Until outside the wall-clock
//     accounting packages (prof, sweep) — simulations are pure
//     functions of their seed.
//   - globalrand: no process-global math/rand(/v2) draws, constant
//     seeds or v1 imports in deterministic packages — randomness
//     must flow from a stream seeded by the trial.
//   - packetretain: a *netsim.Packet handed to Receive/Snoop or to a
//     netsim hook (OnPurge, ForEachQueued …) is simulator-owned and
//     valid only during the callback, and so is a recycled payload
//     reached from it, slices included — copy, never retain. A shared
//     payload reached from it may be kept but never written.
//   - goroutine: no `go` statement in deterministic packages without
//     a reviewed confinement argument — the index's reindex fork-join
//     and the flight recorder's JSONL encoder are the sanctioned seams.
//
// A finding is suppressed by an annotation on the same line or the
// line above:
//
//	//scoop:allow <rule> <reason>
//
// The reason is mandatory: every surviving allow is a reviewed,
// documented decision (DESIGN.md §15). A malformed or unknown-rule
// allow is itself a finding (rule "allow") and cannot be suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// exemptDirs are the module-relative package directories outside the
// DESIGN.md §2 determinism contract. Every other package is bound by
// it, so a package added later is held to §2 unless it is exempted
// here on purpose. exp and sweep fan trials and cells out over
// goroutines; bench times runs from outside and is its own module.
var exemptDirs = map[string]bool{
	"internal/exp":   true,
	"internal/sweep": true,
	"bench":          true,
}

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path, e.g. "scoop/internal/core"
	Rel   string // module-relative directory, e.g. "internal/core"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Deterministic marks the package as bound by the DESIGN.md §2
	// contract. The loader sets it unless exemptDirs lists the
	// package; the fixture harness forces it, so one fixture can show
	// a rule on either side of the gate.
	Deterministic bool
}

// Diagnostic is one finding, positioned in the file set the package
// was parsed with.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects the package behind the
// pass and reports findings; suppression and ordering are handled by
// the runner.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass gives an analyzer access to one package plus a report sink.
type Pass struct {
	*Package
	rule   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full scooplint suite, in reporting order.
var Analyzers = []*Analyzer{Maprange, Floatfold, Walltime, Globalrand, Packetretain, Goroutine}

// AllowRule is the pseudo-rule under which malformed //scoop:allow
// annotations are reported. It cannot be suppressed.
const AllowRule = "allow"

// Run applies the analyzers to every package, drops findings covered
// by a well-formed //scoop:allow, and returns the survivors (plus any
// malformed-allow findings) sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows, allowDiags := collectAllows(pkg, known)
		out = append(out, allowDiags...)
		for _, a := range analyzers {
			pass := &Pass{
				Package: pkg,
				rule:    a.Name,
				report: func(d Diagnostic) {
					if !allows.suppressed(d) {
						out = append(out, d)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	// Nested walks (floatfold revisits inner map ranges) can produce
	// exact duplicates; keep one.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

// allowIndex maps file -> line -> rules allowed on that line. An
// annotation covers the line it sits on and the line below, so both
// trailing comments and own-line comments above the finding work.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) suppressed(d Diagnostic) bool {
	return ai[d.Pos.Filename][d.Pos.Line][d.Rule]
}

const allowPrefix = "scoop:allow"

// collectAllows parses every //scoop:allow annotation in the package.
// Grammar: `//scoop:allow <rule> <reason...>` — the rule must be one
// of the analyzers in force (or "allow" is never valid) and the
// reason must be non-empty. Violations of the grammar are findings
// themselves.
func collectAllows(pkg *Package, known map[string]bool) (allowIndex, []Diagnostic) {
	idx := allowIndex{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				bad := func(format string, args ...any) {
					diags = append(diags, Diagnostic{
						Pos:     pos,
						Rule:    AllowRule,
						Message: fmt.Sprintf(format, args...),
					})
				}
				if len(fields) == 0 {
					bad("scoop:allow needs a rule and a reason: //scoop:allow <rule> <reason>")
					continue
				}
				rule := fields[0]
				if rule == AllowRule || !known[rule] {
					bad("scoop:allow names unknown rule %q", rule)
					continue
				}
				if len(fields) < 2 {
					bad("scoop:allow %s needs a non-empty reason — every allow is a reviewed decision (DESIGN.md §15)", rule)
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					idx[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][rule] = true
				}
			}
		}
	}
	return idx, diags
}
