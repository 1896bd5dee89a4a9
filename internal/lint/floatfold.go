package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatfold bans floating-point accumulation across map iteration
// order, module-wide. This is the exact bug class of the one
// nondeterminism ever shipped: the aggregate planner's per-node summary
// pick folded histogram mass over a randomly-ordered Go map, flipping
// the last bits of aggErr between runs of the same seed (DESIGN.md §2). Float addition
// is not associative, so a fold whose accumulator outlives the loop
// body produces order-dependent bits even when every other rule is
// obeyed — and unlike maprange this can corrupt artifacts from any
// package, so the rule has no deterministic-package carve-out.
var Floatfold = &Analyzer{
	Name: "floatfold",
	Doc:  "floating-point accumulation inside a map-range loop (the planner's summary-pick bug class)",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !mapRange(pass.Info, rs) {
					return true
				}
				ast.Inspect(rs.Body, func(m ast.Node) bool {
					if inner, ok := m.(*ast.RangeStmt); ok && inner != rs && mapRange(pass.Info, inner) {
						// The nested map range gets its own visit with
						// its own (tighter) accumulator scope.
						return false
					}
					as, ok := m.(*ast.AssignStmt)
					if !ok {
						return true
					}
					checkFold(pass, rs, as)
					return true
				})
				return true
			})
		}
	},
}

// checkFold flags `acc op= x` and `acc = acc op x` when acc is
// floating-point and declared outside the map-range body (so the
// accumulation crosses iteration order).
func checkFold(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	fold := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		fold = true
	case token.ASSIGN:
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					lhs := types.ExprString(as.Lhs[0])
					fold = types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs
				}
			}
		}
	}
	if !fold || len(as.Lhs) != 1 {
		return
	}
	lhs := as.Lhs[0]
	t := pass.Info.TypeOf(lhs)
	if t == nil || !isFloat(t) {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := pass.Info.ObjectOf(root)
	if obj == nil || declaredWithin(obj, rs.Body) {
		// A per-iteration accumulator resets each pass; only folds
		// that survive across iterations see the map's order.
		return
	}
	pass.Reportf(as.Pos(), "floating-point accumulation into %s across map iteration order: float addition is not associative, so the result's bits depend on Go's randomized map order (the planner's summary-pick bug, DESIGN.md §2) — iterate sorted keys", types.ExprString(lhs))
}
