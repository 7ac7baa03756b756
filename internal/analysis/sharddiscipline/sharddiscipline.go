// Package sharddiscipline enforces the parallel-simulation ownership rule:
// outside internal/sim itself, code must not schedule work onto (or mutate)
// another shard's engine directly. Every sim.Engine obtained through a
// cross-shard lookup — Fabric.Engine(node), or indexing a []*sim.Engine —
// belongs to a different logical process, and touching its heap from the
// wrong goroutine races with that shard's worker and, worse, silently breaks
// the (at, depth, lp, seq) stamp discipline that makes parallel runs
// byte-identical to serial ones. The one sanctioned channel is
// Engine.Post(dst, at, cb) on the *local* engine: the event rides the outbox
// and is injected at a window barrier, with the sender's stamp.
//
// Two refinements keep the pass precise:
//
//   - Inside the callback literal passed to Post (as sim.Func(func() {...})),
//     the destination engine IS the local engine (the literal executes on
//     it), so dstEng.At(...) within the posted closure is legal.
//   - Passing a looked-up engine to a helper is flagged when the helper (or
//     anything it forwards the parameter to) schedules onto that parameter —
//     an interprocedural fact computed from the shared call-graph summaries.
//
// Setup-time code that populates quiescent engines before the group starts
// (e.g. task admission in core.Runtime.Execute) annotates with
// //impacc:allow-sharddiscipline <reason>.
package sharddiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"impacc/internal/analysis"
)

// Analyzer implements the sharddiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharddiscipline",
	Doc: "forbid scheduling onto (or mutating) another shard's sim.Engine except " +
		"through Engine.Post and the outbox exchange; cross-shard lookups are " +
		"tracked through assignments and helper parameters",
	Run: run,
}

// schedMethods are the Engine methods that mutate engine state and may only
// run on the owning shard. Now/LP/StallReport and friends are reads and
// stay legal.
var schedMethods = map[string]bool{
	"At": true, "After": true, "CallAt": true, "FireAt": true,
	"Spawn": true, "SpawnAt": true,
	"Post": true, "ArmFlight": true,
}

// exempt returns whether a package implements the engine/exchange machinery
// itself and is outside the rule.
func exempt(path string) bool {
	return strings.HasSuffix(path, "internal/sim")
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || exempt(pass.Pkg.Path()) {
		return nil
	}
	var sched map[*types.Func]map[int]bool
	if pass.Facts != nil {
		sched = schedParams(pass.Facts)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			v := &visitor{
				pass:   pass,
				sched:  sched,
				remote: map[types.Object]bool{},
				local:  map[types.Object]int{},
			}
			v.walk(fd.Body)
		}
	}
	return nil
}

// visitor walks one function body tracking which identifiers hold
// cross-shard engines and which are relocalized inside a Post callback.
type visitor struct {
	pass  *analysis.Pass
	sched map[*types.Func]map[int]bool
	// remote marks objects assigned from a cross-shard engine lookup.
	remote map[types.Object]bool
	// local counts nested Post-callback scopes in which an object is the
	// posted-to engine (and therefore local).
	local map[types.Object]int
}

func (v *visitor) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			v.assign(n)
		case *ast.RangeStmt:
			v.rangeStmt(n)
		case *ast.CallExpr:
			if v.call(n) {
				return false // children already walked with adjusted scope
			}
		}
		return true
	})
}

// assign tracks ident := <remote engine lookup> (and clears the mark on
// reassignment from a non-remote value).
func (v *visitor) assign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := v.pass.Info.Defs[id]
		if obj == nil {
			obj = v.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if v.isRemote(n.Rhs[i]) {
			v.remote[obj] = true
		} else if v.remote[obj] {
			delete(v.remote, obj)
		}
	}
}

// rangeStmt marks the value variable of `for _, e := range <[]*sim.Engine>`
// as remote: iterating the shard list visits engines the iterating
// goroutine does not own.
func (v *visitor) rangeStmt(n *ast.RangeStmt) {
	t := v.pass.TypeOf(n.X)
	if t == nil {
		return
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	}
	if elem == nil || !isEnginePtr(elem) {
		return
	}
	if id, ok := n.Value.(*ast.Ident); ok {
		if obj := v.pass.Info.Defs[id]; obj != nil {
			v.remote[obj] = true
		}
	}
}

// call checks one call expression; it returns true when it has walked the
// call's children itself (the Post-relocalization case).
func (v *visitor) call(call *ast.CallExpr) bool {
	v.checkArgs(call)
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !isEnginePtr(v.pass.TypeOf(sel.X)) || !schedMethods[sel.Sel.Name] {
		return false
	}
	if v.isRemote(sel.X) {
		v.pass.Reportf(sel.Pos(),
			"%s on another shard's engine from outside it; cross-shard work must go through Engine.Post on the local engine (outbox exchange), or annotate //impacc:allow-sharddiscipline <reason>",
			sel.Sel.Name)
	}
	// Inside the callback posted to dst, dst is the executing (local)
	// engine: walk the literal with the destination relocalized.
	if sel.Sel.Name == "Post" && len(call.Args) == 3 {
		lit := v.funcLit(call.Args[2])
		if lit == nil {
			return false
		}
		var dst types.Object
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			dst = v.pass.Info.Uses[id]
		}
		v.walk(sel.X)
		v.walk(call.Args[0])
		v.walk(call.Args[1])
		if dst != nil {
			v.local[dst]++
			v.walk(lit.Body)
			v.local[dst]--
		} else {
			v.walk(lit.Body)
		}
		return true
	}
	return false
}

// funcLit returns the function literal a callback argument wraps: the
// literal itself, or the operand of a conversion such as sim.Func(lit).
func (v *visitor) funcLit(arg ast.Expr) *ast.FuncLit {
	arg = ast.Unparen(arg)
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := v.pass.Info.Types[conv.Fun]; ok && tv.IsType() {
			arg = ast.Unparen(conv.Args[0])
		}
	}
	lit, _ := arg.(*ast.FuncLit)
	return lit
}

// checkArgs flags passing a cross-shard engine to a helper that schedules
// onto the corresponding parameter (directly or transitively).
func (v *visitor) checkArgs(call *ast.CallExpr) {
	if v.sched == nil {
		return
	}
	callee := analysis.Callee(v.pass.Info, call)
	if callee == nil || callee.Pkg() == nil || exempt(callee.Pkg().Path()) {
		return
	}
	params := v.sched[callee]
	if len(params) == 0 {
		return
	}
	for i, arg := range call.Args {
		if !params[i] || !v.isRemote(arg) {
			continue
		}
		v.pass.Reportf(arg.Pos(),
			"passes another shard's engine to %s, which schedules onto it; route the work through Engine.Post on the local engine, or annotate //impacc:allow-sharddiscipline <reason>",
			callee.Name())
	}
}

// isRemote reports whether expr evaluates to a cross-shard engine: a direct
// lookup, or an identifier previously assigned one (and not relocalized by
// an enclosing Post callback).
func (v *visitor) isRemote(expr ast.Expr) bool {
	e := ast.Unparen(expr)
	if v.isLookup(e) {
		return true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := v.pass.Info.Uses[id]
	return obj != nil && v.remote[obj] && v.local[obj] == 0
}

// isLookup matches the cross-shard engine lookup shapes: a call to a
// method/function named Engine taking at least one argument and returning
// *sim.Engine (topo.Fabric.Engine(node)), or indexing into a slice/array of
// *sim.Engine.
func (v *visitor) isLookup(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if !isEnginePtr(v.pass.TypeOf(e)) || len(e.Args) < 1 {
			return false
		}
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Engine"
		case *ast.Ident:
			return fun.Name == "Engine"
		}
	case *ast.IndexExpr:
		t := v.pass.TypeOf(e.X)
		if t == nil {
			return false
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			return isEnginePtr(u.Elem())
		case *types.Array:
			return isEnginePtr(u.Elem())
		}
	}
	return false
}

// isEnginePtr matches *sim.Engine.
func isEnginePtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := types.Unalias(t).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named := analysis.NamedOf(ptr.Elem())
	if named == nil || named.Obj().Name() != "Engine" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/sim")
}

// schedParams computes, over the whole program, which *sim.Engine parameters
// of which functions receive scheduling calls — directly, or by being
// forwarded to another function's scheduling parameter. Functions inside
// exempt packages are skipped (sim.Engine.Post legitimately takes a foreign
// engine).
func schedParams(facts *analysis.Facts) map[*types.Func]map[int]bool {
	out := map[*types.Func]map[int]bool{}
	paramIdx := map[*types.Func]map[types.Object]int{}
	for _, s := range facts.Sorted() {
		if s.Func.Pkg() != nil && exempt(s.Func.Pkg().Path()) {
			continue
		}
		idx := map[types.Object]int{}
		i := 0
		if s.Decl.Type.Params != nil {
			for _, field := range s.Decl.Type.Params.List {
				for _, name := range field.Names {
					if obj := s.Pkg.Info.Defs[name]; obj != nil && isEnginePtr(obj.Type()) {
						idx[obj] = i
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
		}
		if len(idx) == 0 {
			continue
		}
		paramIdx[s.Func] = idx
		for _, c := range s.Calls {
			if c.Recv == nil || !schedMethods[c.Callee.Name()] {
				continue
			}
			sig, ok := c.Callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isEnginePtr(sig.Recv().Type()) {
				continue
			}
			if pi, ok := idx[c.Recv]; ok {
				if out[s.Func] == nil {
					out[s.Func] = map[int]bool{}
				}
				out[s.Func][pi] = true
			}
		}
	}
	// Transitive: a parameter forwarded into a scheduling parameter
	// schedules too.
	for changed := true; changed; {
		changed = false
		for _, s := range facts.Sorted() {
			idx := paramIdx[s.Func]
			if len(idx) == 0 {
				continue
			}
			for _, c := range s.Calls {
				target := out[c.Callee]
				if len(target) == 0 {
					continue
				}
				for ai, argObj := range c.Args {
					if argObj == nil || !target[ai] {
						continue
					}
					pi, ok := idx[argObj]
					if !ok || (out[s.Func] != nil && out[s.Func][pi]) {
						continue
					}
					if out[s.Func] == nil {
						out[s.Func] = map[int]bool{}
					}
					out[s.Func][pi] = true
					changed = true
				}
			}
		}
	}
	return out
}
