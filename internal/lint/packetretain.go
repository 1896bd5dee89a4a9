package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Packetretain enforces the §12 copy-never-retain rule: since the
// scale-tier pooling overhaul, one transmission schedules one pooled
// delivery task carrying one shared packet clone for all receivers,
// so the *netsim.Packet handed to App.Receive/App.Snoop is
// simulator-owned and valid only during the callback. Retaining the
// pointer — storing it in a field or slice, sending it on a channel,
// or capturing it in a closure that outlives the callback — reads
// whatever the pool recycles into it next. Network.OnPurge and the
// ForEachQueued/ForEachInFlight visitors get the same kind of pointer.
//
// The analyzer tracks the packet parameters of any method or function
// named Receive or Snoop and of any function literal handed to netsim
// (plus local aliases of them) outside package netsim itself, which
// owns the pool and may do as it pleases. Reading fields and copying
// the struct (cp := *p) are fine.
var Packetretain = &Analyzer{
	Name: "packetretain",
	Doc:  "retaining a simulator-owned *netsim.Packet past the callback it was handed to (DESIGN.md §12)",
	Run: func(pass *Pass) {
		if strings.HasSuffix(pass.Rel, "internal/netsim") {
			return
		}
		check := func(callback string, ft *ast.FuncType, body *ast.BlockStmt) {
			if tracked := packetParams(pass, ft); body != nil && len(tracked) > 0 {
				checkRetention(pass, callback, body, tracked)
			}
		}
		hook := func(sel, fn ast.Expr) { // fn a literal, sel a netsim field or method
			lit, isLit := fn.(*ast.FuncLit)
			sx, _ := sel.(*ast.SelectorExpr)
			if to := pass.Info.Selections[sx]; isLit && to != nil && to.Obj().Pkg() != nil &&
				strings.HasSuffix(to.Obj().Pkg().Path(), "internal/netsim") {
				check(to.Obj().Name(), lit.Type, lit.Body)
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Name.Name == "Receive" || n.Name.Name == "Snoop" {
						check(n.Name.Name, n.Type, n.Body)
					}
				case *ast.AssignStmt: // net.OnPurge = func(id, p) {…}
					for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
						hook(n.Lhs[i], n.Rhs[i])
					}
				case *ast.CallExpr: // net.ForEachQueued(func(id, p) {…})
					for _, arg := range n.Args {
						hook(n.Fun, arg)
					}
				}
				return true
			})
		}
	},
}

// isPacketPtr reports whether t is *netsim.Packet.
func isPacketPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Packet" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/netsim")
}

// packetParams collects the *netsim.Packet parameters of a function.
func packetParams(pass *Pass, ft *ast.FuncType) map[types.Object]bool {
	tracked := map[types.Object]bool{}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil && isPacketPtr(obj.Type()) {
				tracked[obj] = true
			}
		}
	}
	return tracked
}

// checkRetention walks the callback body flagging every way the bare
// tracked pointer can outlive the call.
func checkRetention(pass *Pass, callback string, body *ast.BlockStmt, tracked map[types.Object]bool) {
	info := pass.Info
	isTracked := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && tracked[info.ObjectOf(id)]
	}
	// FuncLits that are invoked on the spot run inside the callback;
	// any other literal may be stored or scheduled and outlive it.
	immediate := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				immediate[lit] = true
			}
		}
		return true
	})
	report := func(n ast.Node, how string) {
		pass.Reportf(n.Pos(), "%s retains a simulator-owned *netsim.Packet: it is valid only during the %s callback — copy the struct, never the pointer (DESIGN.md §12)", how, callback)
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isTracked(rhs) {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				lhs := n.Lhs[i]
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// p, q = f() shape can't have a tracked bare RHS.
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					obj := info.ObjectOf(id)
					if declaredWithin(obj, body) {
						// Local alias: track it too.
						tracked[obj] = true
						continue
					}
					report(n, "assigning to "+types.ExprString(lhs))
					continue
				}
				report(n, "storing in "+types.ExprString(lhs))
			}
		case *ast.CallExpr:
			if builtinName(info, n) == "append" {
				for _, arg := range n.Args[1:] {
					if isTracked(arg) {
						report(arg, "appending to a slice")
					}
				}
			}
		case *ast.SendStmt:
			if isTracked(n.Value) {
				report(n, "sending on a channel")
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isTracked(v) {
					report(v, "storing in a composite literal")
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isTracked(r) {
					report(r, "returning the pointer")
				}
			}
		case *ast.FuncLit:
			if immediate[n] {
				return true // runs inside the callback; keep walking
			}
			captured := false
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if captured {
					return false
				}
				if id, ok := m.(*ast.Ident); ok && tracked[info.ObjectOf(id)] {
					report(id, "capturing in a closure that may outlive the callback")
					captured = true
					return false
				}
				return true
			})
			return false // inner uses already reported once
		}
		return true
	}
	ast.Inspect(body, walk)
}
