// Package globalrand forbids the process-global and host-entropy random
// number generators.
//
// math/rand's top-level functions draw from a shared source whose results
// depend on everything else the process has done (and, in math/rand/v2, on
// per-process random seeding), and crypto/rand is host entropy by design.
// Simulation randomness — EP's pair sampling, jitter models, generator
// inputs — must come from the explicitly seeded, forkable SplitMix64
// streams in internal/sim (sim.NewRNG, sim.RNG.Fork) so every run is a
// pure function of its configured seed.
package globalrand

import (
	"go/ast"
	"go/types"

	"impacc/internal/analysis"
)

// randPkgs are the forbidden generator packages. Any package-level function
// use from them is flagged: even the seeded constructors (rand.New,
// rand.NewSource) are rejected because their streams are not coordinated
// with the run's master seed or the per-task Fork discipline.
var randPkgs = map[string]string{
	"math/rand":    "math/rand",
	"math/rand/v2": "math/rand/v2",
	"crypto/rand":  "crypto/rand",
}

// Analyzer implements the globalrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand, math/rand/v2 and crypto/rand function use (including " +
		"uses hidden behind helper calls); all simulation randomness must flow " +
		"from the seeded sim.RNG streams",
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
			if _, bad := randPkgs[pkgPath]; !bad {
				return true
			}
			// Only function/variable uses are flagged; naming a type
			// (e.g. rand.Source in a signature) is harmless.
			obj := pass.Info.Uses[sel.Sel]
			switch obj.(type) {
			case *types.Func, *types.Var:
				pass.Reportf(sel.Pos(),
					"%s.%s is process-global/host-entropy randomness; derive a seeded stream from sim.NewRNG or RNG.Fork instead, or annotate //impacc:allow-globalrand <reason>",
					pkgPath, sel.Sel.Name)
			}
			return true
		})
	}
	if pass.Facts == nil {
		return nil
	}
	// Interprocedural half: helpers that draw process-global randomness
	// (by calling into a forbidden package or using one of its variables,
	// e.g. crypto/rand.Reader) taint every transitive caller. Annotated
	// origins sanction their callers.
	taint := pass.Facts.Reach("globalrand", func(s *analysis.FuncSummary) (analysis.Origin, bool) {
		for _, c := range s.Calls {
			fn := c.Callee
			if fn.Pkg() == nil {
				continue
			}
			if _, bad := randPkgs[fn.Pkg().Path()]; !bad {
				continue
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				continue // methods on a caller-owned source (rand.Rand) are seeded explicitly
			}
			pos := s.Pkg.Fset.Position(c.Pos)
			if pass.Facts.Allowed("globalrand", pos) {
				continue
			}
			return analysis.Origin{Pos: pos,
				What: fn.Pkg().Path() + "." + fn.Name()}, true
		}
		for _, vu := range s.VarUses {
			if vu.Var.Pkg() == nil {
				continue
			}
			if _, bad := randPkgs[vu.Var.Pkg().Path()]; !bad {
				continue
			}
			pos := s.Pkg.Fset.Position(vu.Pos)
			if pass.Facts.Allowed("globalrand", pos) {
				continue
			}
			return analysis.Origin{Pos: pos,
				What: vu.Var.Pkg().Path() + "." + vu.Var.Name()}, true
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
					"call to %s transitively draws process-global/host-entropy randomness (%s at %s); thread a seeded sim.RNG through instead, or annotate the underlying site //impacc:allow-globalrand <reason>",
					callee.Name(), o.What, analysis.ShortPos(o.Pos))
			}
			return true
		})
	}
	return nil
}
