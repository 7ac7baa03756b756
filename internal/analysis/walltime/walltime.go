// Package walltime forbids wall-clock time and host-process entropy in the
// simulator's deterministic packages.
//
// Every IMPACC result — the Fig. 9/10 crossovers, the golden Chrome traces,
// the serial-vs-parallel byte-identity guarantees — is a pure function of
// the run configuration. A single time.Now() in the runtime threads host
// scheduling noise into virtual-time state and silently breaks all of that.
// The engine's virtual clock (sim.Engine.Now, sim.Proc.Now) is the only
// clock deterministic code may read.
//
// Legitimate wall-clock sites (operator-facing progress timing in the bench
// harness, for example) must carry an explicit
// //impacc:allow-walltime <reason> annotation.
package walltime

import (
	"go/ast"
	"go/types"

	"impacc/internal/analysis"
)

// forbidden maps package path -> function name -> suggested replacement.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":       "the virtual clock (sim.Engine.Now / sim.Proc.Now)",
		"Since":     "virtual-time subtraction (sim.Time difference)",
		"Until":     "virtual-time subtraction (sim.Time difference)",
		"Sleep":     "sim.Proc.Sleep",
		"After":     "sim.Engine.After",
		"AfterFunc": "sim.Engine.After",
		"Tick":      "scheduled sim events",
		"NewTimer":  "scheduled sim events",
		"NewTicker": "scheduled sim events",
	},
	"os": {
		"Getpid":   "a fixed identifier from the run configuration",
		"Getppid":  "a fixed identifier from the run configuration",
		"Hostname": "node names from the topology description",
		"Environ":  "explicit configuration",
	},
}

// Analyzer implements the walltime pass.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock reads (time.Now/Since/Sleep, timers) and host-process " +
		"entropy (os.Getpid, os.Hostname) that would leak nondeterminism into " +
		"virtual-time simulation state, including reads hidden behind helper calls",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath := pass.ImportedPkg(sel.X)
			funcs, ok := forbidden[pkgPath]
			if !ok {
				return true
			}
			repl, ok := funcs[sel.Sel.Name]
			if !ok {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s reads host wall-clock/process state and breaks determinism; use %s, or annotate //impacc:allow-walltime <reason>",
				pkgPath, sel.Sel.Name, repl)
			return true
		})
	}
	if pass.Facts == nil {
		return nil
	}
	// Interprocedural half: a helper whose body reads the wall clock taints
	// every (transitive) caller; the call sites are flagged with the
	// underlying origin. Annotated origins are sanctioned — the annotation's
	// reason covers downstream use of the value.
	taint := pass.Facts.Reach("walltime", func(s *analysis.FuncSummary) (analysis.Origin, bool) {
		for _, c := range s.Calls {
			fn := c.Callee
			if fn.Pkg() == nil {
				continue
			}
			funcs, ok := forbidden[fn.Pkg().Path()]
			if !ok {
				continue
			}
			if _, ok := funcs[fn.Name()]; !ok {
				continue
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				continue
			}
			pos := s.Pkg.Fset.Position(c.Pos)
			if pass.Facts.Allowed("walltime", pos) {
				continue
			}
			return analysis.Origin{Pos: pos,
				What: fn.Pkg().Path() + "." + fn.Name()}, true
		}
		return analysis.Origin{}, false
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(pass.Info, call)
			if callee == nil {
				return true
			}
			if o, ok := taint[callee]; ok {
				pass.Reportf(call.Pos(),
					"call to %s transitively reads host wall-clock/process state (%s at %s); hoist the read out or annotate the underlying site //impacc:allow-walltime <reason>",
					callee.Name(), o.What, analysis.ShortPos(o.Pos))
			}
			return true
		})
	}
	return nil
}
