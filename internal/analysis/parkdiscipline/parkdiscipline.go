// Package parkdiscipline enforces the engine's blocking rule inside
// simulation processes.
//
// The sim engine runs exactly one process at a time; a process gives up
// control only through Proc.park (via Sleep, Event.Wait, Cond.Wait,
// Semaphore.Acquire, FIFOResource.Use). A process that instead
// blocks on a raw channel, sync.WaitGroup, or mutex stalls the entire
// engine: the engine thinks the process is still running, no other process
// can be scheduled to unblock it, and the run deadlocks outside the
// engine's own deadlock detector — or worse, resolves nondeterministically
// via the Go scheduler. This is exactly the bug class the PR 2 unwind
// machinery exists to contain; this pass rejects it at vet time.
//
// A function is considered process context when it takes a *sim.Proc
// parameter or is a function literal passed to Engine.Spawn/SpawnAt.
// Package internal/sim itself is exempt — it implements the discipline.
package parkdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"impacc/internal/analysis"
)

// Analyzer implements the parkdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "parkdiscipline",
	Doc: "inside sim process functions, forbid raw blocking (channel ops, select, " +
		"sync.WaitGroup.Wait, mutex locks, goroutine spawns) that bypasses Proc.park",
	Run: run,
}

// syncBlockers are sync package methods that block or serialize against
// the Go scheduler rather than the sim engine.
var syncBlockers = map[string]bool{
	"Wait": true, "Lock": true, "RLock": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && strings.HasSuffix(pass.Pkg.Path(), "internal/sim") {
		return nil // the engine implements parking
	}
	checked := map[*ast.BlockStmt]bool{}
	check := func(body *ast.BlockStmt) {
		if body != nil && !checked[body] {
			checked[body] = true
			checkBody(pass, body)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if hasProcParam(pass, fn.Type) {
					check(fn.Body)
				}
			case *ast.FuncLit:
				if hasProcParam(pass, fn.Type) {
					check(fn.Body)
				}
			case *ast.CallExpr:
				if isSpawnCall(fn) {
					for _, arg := range fn.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							check(lit.Body)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// hasProcParam reports whether the function signature takes a *sim.Proc.
func hasProcParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isSimProcPtr(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isSimProcPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isSpawnCall matches x.Spawn(...) / x.SpawnAt(...) syntactically; the
// receiver is not type-checked so stub engines in tests are covered too.
func isSpawnCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Spawn" || sel.Sel.Name == "SpawnAt"
}

// checkBody flags raw blocking constructs in one process function body.
// Nested function literals are followed (a closure defined in process
// context usually runs in it), except literals that are themselves process
// functions or spawned bodies — those are visited independently.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			if hasProcParam(pass, s.Type) {
				return false
			}
		case *ast.SendStmt:
			report(pass, s.Pos(), "raw channel send")
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				report(pass, s.Pos(), "raw channel receive")
			}
		case *ast.SelectStmt:
			report(pass, s.Pos(), "select over raw channels")
		case *ast.GoStmt:
			report(pass, s.Pos(), "raw goroutine spawn")
		case *ast.RangeStmt:
			if t := pass.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					report(pass, s.Pos(), "range over a raw channel")
				}
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && syncBlockers[sel.Sel.Name] {
				if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok &&
					obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					report(pass, s.Pos(), "sync."+recvTypeName(obj)+"."+sel.Sel.Name)
				}
			}
		}
		return true
	})
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "?"
}

func report(pass *analysis.Pass, pos token.Pos, what string) {
	pass.Reportf(pos,
		"%s blocks a sim process outside the engine (the engine cannot schedule around it); use the park-based primitives (Proc.Sleep, sim.Event/Cond/Semaphore, FIFOResource) or annotate //impacc:allow-parkdiscipline <reason>",
		what)
}
