package lint

import (
	"go/ast"
	"go/types"
)

// Maprange bans `for range` over maps in deterministic packages
// (DESIGN.md §2): Go randomizes map iteration order, so any map range
// whose body feeds floats, randomness, messages or artifacts makes
// the simulation depend on the runtime, not the seed. The §12
// hot-path rules push per-event state into dense slices anyway; the
// maps that survive live on cold paths, and even those must iterate
// deterministically.
//
// Two body shapes are provably order-independent and exempt:
// collecting keys into a slice (for sorting) and deleting keys from
// the ranged map itself (clearing). Anything else needs sorted keys or a reviewed
// //scoop:allow maprange <reason>.
var Maprange = &Analyzer{
	Name: "maprange",
	Doc:  "range over a map in a deterministic package (DESIGN.md §2)",
	Run: func(pass *Pass) {
		if !pass.Deterministic {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !mapRange(pass.Info, rs) {
					return true
				}
				if collectOnly(pass.Info, rs) {
					return true
				}
				pass.Reportf(rs.For, "map iteration order is randomized: range over %s must collect+sort keys in a deterministic package (DESIGN.md §2), or carry //scoop:allow maprange <reason>", types.ExprString(rs.X))
				return true
			})
		}
	},
}

// collectOnly reports whether the range body provably only collects
// keys for sorting or clears the map: every statement is an append of
// the key to a slice, a delete of the key from the ranged map, a
// continue/break, or an if (with a call-free condition) over the
// same statement forms.
func collectOnly(info *types.Info, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	keyObj := info.ObjectOf(key)
	if keyObj == nil {
		return false
	}
	rangedX := types.ExprString(rs.X)
	var stmtsOK func(stmts []ast.Stmt) bool
	stmtOK := func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			// keys = append(keys, k)
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || builtinName(info, call) != "append" || len(call.Args) != 2 {
				return false
			}
			arg, ok := call.Args[1].(*ast.Ident)
			return ok && info.ObjectOf(arg) == keyObj &&
				types.ExprString(call.Args[0]) == types.ExprString(s.Lhs[0])
		case *ast.ExprStmt:
			// delete(m, k) on the ranged map itself
			call, ok := s.X.(*ast.CallExpr)
			if !ok || builtinName(info, call) != "delete" || len(call.Args) != 2 {
				return false
			}
			arg, ok := call.Args[1].(*ast.Ident)
			return ok && info.ObjectOf(arg) == keyObj &&
				types.ExprString(call.Args[0]) == rangedX
		case *ast.BranchStmt:
			return s.Label == nil
		case *ast.IfStmt:
			if s.Init != nil || hasCall(s.Cond) {
				return false
			}
			if !stmtsOK(s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return stmtsOK(e.List)
			case *ast.IfStmt:
				return stmtsOK([]ast.Stmt{e})
			default:
				return false
			}
		default:
			return false
		}
	}
	stmtsOK = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			if !stmtOK(s) {
				return false
			}
		}
		return true
	}
	return stmtsOK(rs.Body.List)
}
