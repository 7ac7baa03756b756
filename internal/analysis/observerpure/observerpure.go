// Package observerpure statically enforces the no-perturb guarantee for
// observation hooks: a function wired as a progress emitter (Progress.Emit),
// a shard-group beat or window callback (OnBeat/OnWindow), a hub trace hook
// (OnMatch/OnFault), or a SpanSink implementation observes a run — it must
// never mutate the simulation it observes. The runtime documents the rule
// ("It must not call back into the runtime") and the byte-identity tests
// sample it; this pass proves it for every wired callback on every path.
//
// "Mutating the simulation" means writing a field of, or calling a mutating
// method on, one of the runtime's state-bearing types (sim.Engine,
// sim.ShardGroup, sim.Proc, sim.Event, core.Runtime, core.Task, msg.Hub,
// topo.Fabric, device.Runtime) — directly, or through any chain of helper
// calls (the interprocedural fact store supplies the closure). Observers
// may freely mutate their own buffers, sinks, and tracers; those types are
// not simulation state.
//
// Wiring is recognized program-wide from the shared fact store's function
// binds: method values and named functions assigned to the hook fields, and
// inline literals at the wiring site. //impacc:allow-observerpure <reason>
// suppresses a site.
package observerpure

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"impacc/internal/analysis"
)

// Analyzer implements the observerpure pass.
var Analyzer = &analysis.Analyzer{
	Name: "observerpure",
	Doc: "functions wired as observers (Progress.Emit, OnBeat/OnWindow, hub trace " +
		"hooks, SpanSink implementations) must not mutate engine/runtime/hub " +
		"state, directly or through helpers",
	Run: run,
}

// stateTypes names the simulation-state types, as pkg-path-suffix → type
// names. A write to any field of these, from an observer, perturbs the run.
var stateTypes = map[string]map[string]bool{
	"internal/sim":    {"Engine": true, "ShardGroup": true, "Proc": true, "Event": true},
	"internal/core":   {"Runtime": true, "Task": true},
	"internal/msg":    {"Hub": true},
	"internal/topo":   {"Fabric": true},
	"internal/device": {"Runtime": true},
}

// mutMethods are methods of state types that mutate them (scheduling,
// process control). Reads (Now, Events, Stats, ...) are
// what observers are for and stay legal.
var mutMethods = map[string]bool{
	"Cancel": true, "At": true, "After": true, "CallAt": true, "FireAt": true,
	"Post": true, "OnFire": true,
	"Spawn": true, "SpawnAt": true, "SpawnStepAt": true,
	"Wake": true, "Run": true, "Execute": true,
	"ArmFlight": true, "Fire": true, "SetFaults": true,
}

// hookField reports whether a FuncBind wires an observer hook.
func hookField(b analysis.FuncBind) (hook string, ok bool) {
	switch b.Field {
	case "OnBeat", "OnWindow", "OnMatch", "OnFault":
		return b.Field, true
	case "Emit":
		if strings.HasSuffix(b.Owner, ".Progress") {
			return "Progress.Emit", true
		}
	}
	return "", false
}

func isStateType(named *types.Named) bool {
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	for suffix, names := range stateTypes {
		if strings.HasSuffix(path, suffix) && names[named.Obj().Name()] {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	facts := pass.Facts
	if facts == nil {
		return nil
	}
	// Transitive closure: which functions mutate simulation state, with the
	// originating site carried along for the message.
	taint := facts.Reach("observerpure", func(s *analysis.FuncSummary) (analysis.Origin, bool) {
		for _, fw := range s.FieldWrites {
			if !isStateType(fw.Owner) {
				continue
			}
			pos := s.Pkg.Fset.Position(fw.Pos)
			if facts.Allowed("observerpure", pos) {
				continue
			}
			return analysis.Origin{Pos: pos,
				What: fmt.Sprintf("write to %s.%s", fw.Owner.Obj().Name(), fw.Field.Name())}, true
		}
		for _, c := range s.Calls {
			if !mutMethods[c.Callee.Name()] {
				continue
			}
			sig, ok := c.Callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			if !isStateType(analysis.NamedOf(sig.Recv().Type())) {
				continue
			}
			pos := s.Pkg.Fset.Position(c.Pos)
			if facts.Allowed("observerpure", pos) {
				continue
			}
			recv := analysis.NamedOf(sig.Recv().Type())
			return analysis.Origin{Pos: pos,
				What: recv.Obj().Name() + "." + c.Callee.Name() + " call"}, true
		}
		return analysis.Origin{}, false
	})

	// Observer functions wired by bind (method values / named functions),
	// reported at their declaration — but only for functions declared in
	// the package this pass is visiting.
	reported := map[*types.Func]bool{}
	checkFn := func(fn *types.Func, hook string) {
		s := facts.Summary(fn)
		if s == nil || s.Pkg.Types != pass.Pkg || reported[fn] {
			return
		}
		o, tainted := taint[fn]
		if !tainted {
			return
		}
		reported[fn] = true
		pass.Reportf(s.Decl.Name.Pos(),
			"%s is wired as a %s observer but mutates simulation state (%s at %s); observers must be read-only, or annotate //impacc:allow-observerpure <reason>",
			fn.Name(), hook, o.What, analysis.ShortPos(o.Pos))
	}
	for _, b := range facts.Binds {
		hook, ok := hookField(b)
		if !ok {
			continue
		}
		if b.Fn != nil {
			checkFn(b.Fn, hook)
		}
		if b.Lit != nil && b.Pkg.Types == pass.Pkg {
			checkLit(pass, taint, b.Lit, hook)
		}
	}
	// SpanSink implementations: every Emit/Close of a type implementing a
	// SpanSink interface is an observer.
	for fn := range facts.Implementations("SpanSink") {
		checkFn(fn, "SpanSink")
	}
	return nil
}

// checkLit inspects an inline observer literal at its wiring site: direct
// state mutations, and calls into tainted helpers.
func checkLit(pass *analysis.Pass, taint map[*types.Func]analysis.Origin, lit *ast.FuncLit, hook string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				litFieldWrite(pass, hook, lhs)
			}
		case *ast.IncDecStmt:
			litFieldWrite(pass, hook, n.X)
		case *ast.CallExpr:
			callee := analysis.Callee(pass.Info, n)
			if callee == nil {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil &&
				mutMethods[callee.Name()] && isStateType(analysis.NamedOf(sig.Recv().Type())) {
				pass.Reportf(n.Pos(),
					"%s observer calls %s.%s, mutating simulation state; observers must be read-only, or annotate //impacc:allow-observerpure <reason>",
					hook, analysis.NamedOf(sig.Recv().Type()).Obj().Name(), callee.Name())
				return true
			}
			if o, ok := taint[callee]; ok {
				pass.Reportf(n.Pos(),
					"%s observer calls %s, which mutates simulation state (%s at %s); observers must be read-only, or annotate //impacc:allow-observerpure <reason>",
					hook, callee.Name(), o.What, analysis.ShortPos(o.Pos))
			}
		}
		return true
	})
}

func litFieldWrite(pass *analysis.Pass, hook string, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	owner := analysis.NamedOf(pass.TypeOf(sel.X))
	if !isStateType(owner) {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"%s observer writes %s.%s, mutating simulation state; observers must be read-only, or annotate //impacc:allow-observerpure <reason>",
		hook, owner.Obj().Name(), sel.Sel.Name)
}
