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
// A payload a relay forwards as heard is immutable once sent: core's
// QueryMsg, a shared payload that every relay and node may keep, and
// its SummaryMsg, a recycled one the basestation copies. A write
// through one reached from a tracked packet changes what every other
// holder sees. Assigning or incrementing through it (m.Min = …,
// m.Hops++, including through a pointer, slice or array pointer taken
// from it), clearing or copying into its slices, appending to one (a
// summary's Hist.Counts and Neighbors slice arrays inside the message,
// so spare room is the payload's), and calling a pointer method on it
// or on one of its fields are findings; a pointer method of the same
// package is followed instead, and only its writes count. Keeping a
// summary, or a slice or pointer into one, is a recycled-payload
// finding; keeping a query is not.
//
// Handing a recycled payload to the network in a new frame
// (&netsim.Packet{Payload: m}) is not keeping it — Send holds a
// reference per queued frame — but the frame then counts as the
// payload: keeping it past the callback is the finding.
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
		visited := map[visit]bool{}
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
	borrowShared         // a shared payload, or a pointer, slice or map reached through one
	borrowHeard          // a recycled payload relays forward as heard, or a pointer, slice or map reached through one
)

// visit is a parameter checked as tracked with one borrow kind.
type visit struct {
	obj types.Object
	k   borrow
}

// sharedPayloads names core's shared payload types (netsim.Packet).
var sharedPayloads = map[string]bool{"QueryMsg": true}

// heardPayloads names core's recycled payload types that a relay
// forwards as heard.
var heardPayloads = map[string]bool{"SummaryMsg": true}

// isCorePtr reports whether t points to a core type named in names.
func isCorePtr(t types.Type, names map[string]bool) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil && names[named.Obj().Name()] &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/core")
}

// readOnly reports whether a value of kind k is, or points into, a
// payload relays forward as heard.
func readOnly(k borrow) bool { return k == borrowShared || k == borrowHeard }

// isRef reports whether a value of type t refers to memory it does not
// hold: a pointer, slice or map.
func isRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

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
	visited  map[visit]bool                // parameters already checked as tracked
}

// classify reports what kind of borrowed value e evaluates to.
func (r *retention) classify(e ast.Expr) borrow {
	info := r.pass.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return r.tracked[info.ObjectOf(e)]
	case *ast.TypeAssertExpr: // p.Payload.(*T)
		if e.Type != nil && r.isPayloadOf(e.X) {
			return payloadKind(info.TypeOf(e.Type))
		}
	case *ast.SelectorExpr: // m.Readings, m.Neighbors, m.Hist.Counts
		k := r.classify(e.X)
		ro := k
		if !readOnly(ro) {
			ro = r.inside(e)
		}
		if readOnly(ro) && isRef(info.TypeOf(e)) {
			return ro
		}
		if (k == borrowPayload || k == borrowCopy) && isSlice(info.TypeOf(e)) {
			return borrowSlice
		}
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			break
		}
		if k := r.inside(e.X); k != borrowNone { // &m.Bitmap
			return k
		}
		if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok { // &netsim.Packet{Payload: m}
			return r.classify(lit)
		}
	case *ast.CompositeLit: // netsim.Packet{Payload: m}: the frame carries the payload
		if v := packetPayload(info, e); v != nil {
			return r.classify(v)
		}
	case *ast.StarExpr: // *m
		if k := r.classify(e.X); (k == borrowPayload || k == borrowHeard) && hasSliceField(info.TypeOf(e)) {
			return borrowCopy
		}
	case *ast.SliceExpr: // m.Readings[i:j]
		if k := r.classify(e.X); k == borrowSlice || readOnly(k) {
			return k
		}
	case *ast.CallExpr: // (*[10]uint16)(m.Hist.Counts)
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 && isRef(info.TypeOf(e)) {
			if k := r.classify(e.Args[0]); readOnly(k) {
				return k
			}
		}
	}
	return borrowNone
}

// payloadKind classifies a payload pointer type a type switch or
// assertion binds.
func payloadKind(t types.Type) borrow {
	switch {
	case isCorePtr(t, heardPayloads):
		return borrowHeard
	case isRecycledPtr(t):
		return borrowPayload
	case isCorePtr(t, sharedPayloads):
		return borrowShared
	}
	return borrowNone
}

// packetPayload returns the Payload value of a netsim.Packet literal,
// or nil.
func packetPayload(info *types.Info, lit *ast.CompositeLit) ast.Expr {
	if !isNetsimNamed(info.TypeOf(lit), "Packet") {
		return nil
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Payload" {
				return kv.Value
			}
		}
	}
	return nil
}

// sharedReceiver reports whether the method selection sel, called on x,
// takes a pointer into a shared payload: a pointer receiver given x's
// address (x inside the payload) or x itself (a tracked pointer).
func (r *retention) sharedReceiver(sel *types.Selection, x ast.Expr) bool {
	sig := sel.Obj().Type().(*types.Signature)
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return false // a value receiver works on a copy
	}
	if _, ptr := r.pass.Info.TypeOf(x).Underlying().(*types.Pointer); ptr {
		return readOnly(r.classify(x))
	}
	return r.inside(x) != borrowNone
}

// inside reports whether the location e names lies inside a payload
// relays forward as heard — a field, element or pointee reached from a
// tracked read-only value (the tracked variable itself is only a local
// binding) — and if so the kind of that value, else borrowNone.
func (r *retention) inside(e ast.Expr) borrow {
	in := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if k := r.tracked[r.pass.Info.ObjectOf(x)]; in && readOnly(k) {
				return k
			}
			return borrowNone
		case *ast.SelectorExpr:
			if sel := r.pass.Info.Selections[x]; sel == nil || sel.Kind() != types.FieldVal {
				return borrowNone
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return borrowNone
		}
		in = true
	}
}

// writesShared reports a write to the location e names when it lies
// inside a payload relays forward as heard.
func (r *retention) writesShared(e ast.Expr, verb string) {
	if r.inside(e) != borrowNone {
		r.report(e, borrowShared, verb+" "+types.ExprString(e))
	}
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
	borrowPayload: "%s retains a recycled payload: it goes back to its network's free list after the %s callback — copy the fields you keep (DESIGN.md §12)",
	borrowSlice:   "%s retains a recycled payload's slice: the buffer goes back to its network's free list after the %s callback — copy the elements, append(dst, s...) (DESIGN.md §12)",
	borrowCopy:    "%s retains a struct copy of a recycled payload: its slice fields still point into the payload, which goes back to its network's free list after the %s callback — copy the fields you keep (DESIGN.md §12)",
	borrowShared:  "%s writes a payload reached from the %s callback that relays forward as heard: it is immutable once sent, so change a copy (DESIGN.md §12)",
	borrowHeard:   "%s retains a recycled payload, or a slice or pointer into one: it goes back to its network's free list after the %s callback — copy the fields you keep (DESIGN.md §12)",
}

func (r *retention) report(n ast.Node, k borrow, how string) {
	r.pass.Reportf(n.Pos(), retainMsg[k], how, r.callback)
}

// retained reports a tracked value kept past the callback, unless it is
// a shared payload, which may be kept.
func (r *retention) retained(n ast.Node, k borrow, how string) {
	if k != borrowShared {
		r.report(n, k, how)
	}
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
					if obj := info.Implicits[clause]; obj != nil {
						if k := payloadKind(obj.Type()); k != borrowNone {
							r.tracked[obj] = k
						}
					}
				}
			}
		case *ast.IncDecStmt:
			verb := "incrementing"
			if n.Tok == token.DEC {
				verb = "decrementing"
			}
			r.writesShared(n.X, verb)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				r.writesShared(lhs, "assigning to")
			}
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
					r.retained(n, k, "assigning to "+types.ExprString(lhs))
					continue
				}
				r.retained(n, k, "storing in "+types.ExprString(lhs))
			}
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "append":
				if dst := n.Args[0]; readOnly(r.classify(dst)) { // into the payload's spare room
					r.report(dst, borrowShared, "appending to "+types.ExprString(dst))
				}
				for i, arg := range n.Args[1:] {
					k := r.classify(arg)
					spread := n.Ellipsis.IsValid() && i == len(n.Args)-2
					if k != borrowNone && !(spread && (k == borrowSlice || k == borrowHeard)) {
						r.retained(arg, k, "appending to a slice")
					}
				}
				return true
			case "copy", "clear":
				if dst := n.Args[0]; readOnly(r.classify(dst)) {
					r.report(dst, borrowShared, "calling "+builtinName(info, n)+" on "+types.ExprString(dst))
				}
			}
			r.follow(n)
		case *ast.SendStmt:
			if k := r.classify(n.Value); k != borrowNone {
				r.retained(n, k, "sending on a channel")
			}
		case *ast.CompositeLit:
			payload := packetPayload(info, n) // the frame is tracked in its place
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if k := r.classify(v); k != borrowNone && v != payload {
					r.retained(v, k, "storing in a composite literal")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if k := r.classify(res); k != borrowNone {
					r.retained(res, k, "returning it")
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
					if k := r.tracked[info.ObjectOf(id)]; k != borrowNone && k != borrowShared {
						r.report(id, k, "capturing in a closure that may outlive the callback")
						captured = true
					}
				}
				return !captured
			})
			// A closure that keeps only shared payloads is walked for
			// writes through them; inner uses of anything else were
			// already reported once.
			return !captured
		}
		return true
	})
}

// follow checks a call to a function declared in this package with
// every tracked argument tracked as the parameter it binds: passing a
// borrowed value down the stack is fine only if the callee keeps it no
// more than the callback may. A pointer method called on a shared
// payload, or on a field of one, is followed with its receiver tracked;
// one declared elsewhere cannot be, so the call is the finding.
func (r *retention) follow(call *ast.CallExpr) {
	var id *ast.Ident
	var recv ast.Expr // the operand of a pointer method that shares a payload's memory
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		sel := r.pass.Info.Selections[f]
		if sel != nil && sel.Kind() == types.MethodExpr {
			return // T.m(recv, …): arguments shifted by the receiver
		}
		id = f.Sel
		if sel != nil && sel.Kind() == types.MethodVal && r.sharedReceiver(sel, f.X) {
			recv = f.X
		}
	}
	if id == nil {
		return
	}
	fn, ok := r.pass.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	decl := r.decls[fn.Origin()]
	if decl == nil && recv != nil {
		r.report(call, borrowShared, "calling pointer method "+fn.Name()+" on "+types.ExprString(recv))
	}
	if decl == nil || call.Ellipsis.IsValid() {
		return
	}
	ps := params(r.pass, decl.Type)
	if fn.Type().(*types.Signature).Variadic() {
		ps = ps[:len(ps)-1]
	}
	tracked := map[types.Object]borrow{}
	track := func(p types.Object, k borrow) {
		if p != nil && k != borrowNone && !r.visited[visit{p, k}] {
			tracked[p] = k
			r.visited[visit{p, k}] = true
		}
	}
	if recv != nil && len(decl.Recv.List[0].Names) == 1 {
		track(r.pass.Info.Defs[decl.Recv.List[0].Names[0]], borrowShared)
	}
	for i, arg := range call.Args {
		if i < len(ps) {
			track(ps[i], r.classify(arg))
		}
	}
	if len(tracked) > 0 {
		(&retention{pass: r.pass, callback: r.callback, body: decl.Body, tracked: tracked,
			decls: r.decls, visited: r.visited}).check()
	}
}
