package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// The generator package's two generations. Product code builds v2's PCG
// (DESIGN.md §2); v1's functions are judged too, so that allowing its
// import excuses no global draw. (A raw string: a grep for v1's quoted
// path then finds imports and nothing else.)
const randV1, randV2 = `math/rand`, "math/rand/v2"

// Globalrand enforces the DESIGN.md §2 randomness contract in
// deterministic packages: every draw comes from a stream built from a
// seed that flows in as a parameter (a node's substream in netsim,
// workload generators, dynamics scripts). Three things break that:
//
//   - package-level functions of math/rand/v2 or math/rand other than
//     the New* constructors (rand.IntN, rand.N, rand.Shuffle, …): the
//     process-global source, shared with whatever else draws from it;
//   - a constructor given nothing but constants (rand.NewPCG(42, 7), a
//     literal NewChaCha8 key, v1's rand.NewSource(42)): two trials of
//     different seeds would share its stream;
//   - importing v1 math/rand at all: no committed artifact was
//     generated with its streams.
//
// Methods of an explicit *rand.Rand are always fine, as are New and
// NewZipf, whose argument is a stream.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "process-global, constant-seeded or v1 math/rand in a deterministic package (DESIGN.md §2)",
	Run: func(pass *Pass) {
		if !pass.Deterministic {
			return
		}
		// randFunc resolves e to a package-level function of either
		// generation and says whether it is a constructor.
		randFunc := func(e ast.Expr) (fn *types.Func, ctor bool) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				fn = pkgFunc(pass.Info, sel)
			}
			if fn == nil || fn.Pkg().Path() != randV1 && fn.Pkg().Path() != randV2 {
				return nil, false
			}
			return fn, strings.HasPrefix(fn.Name(), "New")
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					if path, _ := strconv.Unquote(n.Path.Value); path == randV1 {
						pass.Reportf(n.Pos(), "math/rand (v1) imported in a deterministic package: streams are math/rand/v2 PCG (DESIGN.md §2)")
					}
				case *ast.SelectorExpr:
					if fn, ctor := randFunc(n); fn != nil && !ctor {
						pass.Reportf(n.Pos(), "%s.%s draws from the process-global source: randomness must flow from a stream seeded by the trial (DESIGN.md §2)", fn.Pkg().Path(), fn.Name())
					}
				case *ast.CallExpr:
					if fn, ctor := randFunc(n.Fun); ctor && constSeed(pass.Info, n.Args...) {
						pass.Reportf(n.Pos(), "rand.%s with a constant seed decouples this stream from the trial seed: derive it from the seed that flows in (DESIGN.md §2)", fn.Name())
					}
				}
				return true
			})
		}
	},
}

// constSeed reports whether every one of es is fixed at compile time: a
// constant expression, or (NewChaCha8's [32]byte) a literal of nothing else.
func constSeed(info *types.Info, es ...ast.Expr) bool {
	for _, e := range es {
		lit, ok := e.(*ast.CompositeLit)
		if ok && !constSeed(info, lit.Elts...) || !ok && info.Types[e].Value == nil {
			return false
		}
	}
	return true
}
