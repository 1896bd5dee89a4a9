package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Packetretain enforces the §12 borrow rule: since the scale-tier
// pooling overhaul, one transmission schedules one pooled delivery task
// carrying one shared packet clone for all receivers, so the
// *netsim.Packet handed to App.Receive/App.Snoop is simulator-owned and
// valid only during the callback. Retaining the pointer — storing it in
// a field or slice, sending it on a channel, or capturing it in a
// closure that outlives the callback — reads whatever the pool recycles
// into it next. Network.OnPurge and the ForEachQueued/ForEachInFlight
// visitors get the same kind of pointer.
//
// A recycled payload — a type embedding netsim.Refs, reached from a
// tracked packet through a type switch or assertion — is borrowed the
// same way: after its last delivery it goes back to its sender's free
// list and is zeroed. Keeping the payload pointer is a finding, and so
// is keeping one of its slice fields (they are the payload's own
// buffers) or letting a struct copy of it escape, since the copy's
// slice fields still point into the payload.
//
// The analyzer tracks the packet parameters of any method or function
// named Receive, Snoop or Observe (routing's per-frame hook) and of any
// function literal handed to netsim, plus local aliases, outside
// package netsim itself, which owns the pool and may do as it pleases.
// Passing a tracked value down the stack to a function of the same
// package is followed into that function. Reading fields, copying the
// packet header (cp := *p), copying elements (append(dst,
// m.Readings...)) and copying fields one by one are fine.
var Packetretain = &Analyzer{
	Name: "packetretain",
	Doc:  "retaining a simulator-owned *netsim.Packet, or a recycled payload reached from one, past the callback it was handed to (DESIGN.md §12)",
	Run: func(pass *Pass) {
		if strings.HasSuffix(pass.Rel, "internal/netsim") {
			return
		}
		decls := map[*types.Func]*ast.FuncDecl{}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		visited := map[types.Object]bool{}
		check := func(callback string, ft *ast.FuncType, body *ast.BlockStmt) {
			tracked := map[types.Object]borrow{}
			for _, obj := range params(pass, ft) {
				if obj != nil && isNetsimPtr(obj.Type(), "Packet") {
					tracked[obj] = borrowPacket
				}
			}
			if body != nil && len(tracked) > 0 {
				r := &retention{pass: pass, callback: callback, body: body, tracked: tracked, decls: decls, visited: visited}
				r.check()
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
					switch n.Name.Name {
					case "Receive", "Snoop", "Observe":
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

// borrow classifies a tracked value.
type borrow uint8

const (
	borrowNone    borrow = iota
	borrowPacket         // a simulator-owned *netsim.Packet
	borrowPayload        // a pointer to a recycled payload
	borrowSlice          // a slice field of a recycled payload (or a reslice of one)
	borrowCopy           // a struct copy of a recycled payload that has slice fields
)

// isNetsimNamed reports whether t is the netsim type called name.
func isNetsimNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Name() == name &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/netsim")
}

// isNetsimPtr reports whether t is a pointer to the netsim type called name.
func isNetsimPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNetsimNamed(ptr.Elem(), name)
}

// recycledStruct returns the struct of a recycled payload type — a named
// struct embedding netsim.Refs — or nil.
func recycledStruct(t types.Type) *types.Struct {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Embedded() && isNetsimNamed(f.Type(), "Refs") {
			return st
		}
	}
	return nil
}

// isRecycledPtr reports whether t points to a recycled payload type.
func isRecycledPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && recycledStruct(ptr.Elem()) != nil
}

// hasSliceField reports whether the recycled payload type t has a slice
// field of its own.
func hasSliceField(t types.Type) bool {
	st := recycledStruct(t)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if isSlice(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// params lists the named parameter objects of a function, in order.
func params(pass *Pass, ft *ast.FuncType) []types.Object {
	var out []types.Object
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
		}
		for _, name := range field.Names {
			out = append(out, pass.Info.Defs[name])
		}
	}
	return out
}

// retention checks one function body against its tracked values.
type retention struct {
	pass     *Pass
	callback string // the Receive/Snoop/hook the values were handed to
	body     *ast.BlockStmt
	tracked  map[types.Object]borrow
	decls    map[*types.Func]*ast.FuncDecl // the package's functions, for following calls
	visited  map[types.Object]bool         // parameters already checked as tracked
}

// classify reports what kind of borrowed value e evaluates to.
func (r *retention) classify(e ast.Expr) borrow {
	info := r.pass.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return r.tracked[info.ObjectOf(e)]
	case *ast.TypeAssertExpr: // p.Payload.(*T)
		if e.Type != nil && r.isPayloadOf(e.X) && isRecycledPtr(info.TypeOf(e.Type)) {
			return borrowPayload
		}
	case *ast.SelectorExpr: // m.Readings
		if k := r.classify(e.X); (k == borrowPayload || k == borrowCopy) && isSlice(info.TypeOf(e)) {
			return borrowSlice
		}
	case *ast.StarExpr: // *m
		if r.classify(e.X) == borrowPayload && hasSliceField(info.TypeOf(e)) {
			return borrowCopy
		}
	case *ast.SliceExpr: // m.Readings[i:j]
		if r.classify(e.X) == borrowSlice {
			return borrowSlice
		}
	}
	return borrowNone
}

// isPayloadOf reports whether x is the Payload field of a tracked packet.
func (r *retention) isPayloadOf(x ast.Expr) bool {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Payload" && r.classify(sel.X) == borrowPacket
}

// retainMsg holds one finding message per kind of borrowed value; each
// takes how the value escapes and the callback it was borrowed in.
var retainMsg = [...]string{
	borrowPacket:  "%s retains a simulator-owned *netsim.Packet: it is valid only during the %s callback — copy the struct, never the pointer (DESIGN.md §12)",
	borrowPayload: "%s retains a recycled payload: it goes back to its sender's free list after the %s callback — copy the fields you keep (DESIGN.md §12)",
	borrowSlice:   "%s retains a recycled payload's slice: the buffer goes back to its sender's free list after the %s callback — copy the elements, append(dst, s...) (DESIGN.md §12)",
	borrowCopy:    "%s retains a struct copy of a recycled payload: its slice fields still point into the payload, which goes back to its sender's free list after the %s callback — copy the fields you keep (DESIGN.md §12)",
}

func (r *retention) report(n ast.Node, k borrow, how string) {
	r.pass.Reportf(n.Pos(), retainMsg[k], how, r.callback)
}

// check walks the body flagging every way a tracked value can outlive
// the call.
func (r *retention) check() {
	info := r.pass.Info
	// FuncLits that are invoked on the spot run inside the callback;
	// any other literal may be stored or scheduled and outlive it.
	immediate := map[*ast.FuncLit]bool{}
	ast.Inspect(r.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				immediate[lit] = true
			}
		}
		return true
	})
	ast.Inspect(r.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSwitchStmt: // switch m := p.Payload.(type)
			if a, ok := n.Assign.(*ast.AssignStmt); ok && r.isPayloadOf(a.Rhs[0].(*ast.TypeAssertExpr).X) {
				for _, clause := range n.Body.List {
					if obj := info.Implicits[clause]; obj != nil && isRecycledPtr(obj.Type()) {
						r.tracked[obj] = borrowPayload
					}
				}
			}
		case *ast.AssignStmt:
			rhs := n.Rhs
			if len(n.Lhs) == 2 && len(rhs) == 1 { // b, ok := p.Payload.(*T)
				if _, ok := ast.Unparen(rhs[0]).(*ast.TypeAssertExpr); ok {
					rhs = []ast.Expr{rhs[0], nil}
				}
			}
			for i := 0; i < len(rhs) && len(rhs) == len(n.Lhs); i++ {
				k := r.classify(rhs[i])
				if k == borrowNone {
					continue
				}
				lhs := n.Lhs[i]
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" {
						continue
					}
					if obj := info.ObjectOf(id); declaredWithin(obj, r.body) {
						r.tracked[obj] = k // a local alias: track it too
						continue
					}
					r.report(n, k, "assigning to "+types.ExprString(lhs))
					continue
				}
				r.report(n, k, "storing in "+types.ExprString(lhs))
			}
		case *ast.CallExpr:
			if builtinName(info, n) == "append" {
				for i, arg := range n.Args[1:] {
					k := r.classify(arg)
					spread := n.Ellipsis.IsValid() && i == len(n.Args)-2
					if k != borrowNone && !(spread && k == borrowSlice) {
						r.report(arg, k, "appending to a slice")
					}
				}
				return true
			}
			r.follow(n)
		case *ast.SendStmt:
			if k := r.classify(n.Value); k != borrowNone {
				r.report(n, k, "sending on a channel")
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if k := r.classify(v); k != borrowNone {
					r.report(v, k, "storing in a composite literal")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if k := r.classify(res); k != borrowNone {
					r.report(res, k, "returning it")
				}
			}
		case *ast.UnaryExpr:
			if k := r.classify(n.X); n.Op == token.AND && k == borrowCopy {
				r.report(n, k, "taking the address of a copy")
			}
		case *ast.FuncLit:
			if immediate[n] {
				return true // runs inside the callback; keep walking
			}
			captured := false
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && !captured {
					if k := r.tracked[info.ObjectOf(id)]; k != borrowNone {
						r.report(id, k, "capturing in a closure that may outlive the callback")
						captured = true
					}
				}
				return !captured
			})
			return false // inner uses already reported once
		}
		return true
	})
}

// follow checks a call to a function declared in this package with
// every tracked argument tracked as the parameter it binds: passing a
// borrowed value down the stack is fine only if the callee keeps it no
// more than the callback may.
func (r *retention) follow(call *ast.CallExpr) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		if sel := r.pass.Info.Selections[f]; sel != nil && sel.Kind() == types.MethodExpr {
			return // T.m(recv, …): arguments shifted by the receiver
		}
		id = f.Sel
	}
	if id == nil {
		return
	}
	fn, ok := r.pass.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	decl := r.decls[fn.Origin()]
	if decl == nil || call.Ellipsis.IsValid() {
		return
	}
	ps := params(r.pass, decl.Type)
	if fn.Type().(*types.Signature).Variadic() {
		ps = ps[:len(ps)-1]
	}
	tracked := map[types.Object]borrow{}
	for i, arg := range call.Args {
		if i >= len(ps) || ps[i] == nil || r.visited[ps[i]] {
			continue
		}
		if k := r.classify(arg); k != borrowNone {
			tracked[ps[i]] = k
			r.visited[ps[i]] = true
		}
	}
	if len(tracked) > 0 {
		(&retention{pass: r.pass, callback: r.callback, body: decl.Body, tracked: tracked,
			decls: r.decls, visited: r.visited}).check()
	}
}
