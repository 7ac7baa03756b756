package analysis

import "sort"

// Run applies every analyzer to every target package (users, see
// Loader.Users, only feed Facts.Program) and returns the combined
// diagnostics in (file, line, column, analyzer) order. Before the analyzers
// run, one program-wide interprocedural fact store is built over all target
// packages (see interproc.go) and shared through Pass.Facts.
//
// Suppression annotations are honored per analyzer; two pseudo-analyzers
// police the escape hatches themselves: malformed annotations (no reason)
// are reported under "allowform" so a bare //impacc:allow-walltime can never
// silently disable a check, and reasoned annotations that suppress nothing
// are reported under "allowstale" so stale escape hatches cannot rot in the
// tree. An annotation that names no analyzer of the running suite, a typo
// or a deleted analyzer, suppresses nothing either and is reported too.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var targets, program []*Package
	for _, pkg := range pkgs {
		if pkg.DepOnly || len(pkg.Files) == 0 {
			continue
		}
		program = append(program, pkg)
		if !pkg.User {
			targets = append(targets, pkg)
		}
	}
	allows := newAllowIndex()
	for _, pkg := range targets {
		allows.add(pkg.Fset, pkg.Files)
	}
	facts := buildFacts(targets, allows)
	facts.Program = program

	var diags []Diagnostic
	for _, site := range allows.bad {
		diags = append(diags, Diagnostic{
			Analyzer: "allowform",
			Pos:      site.Pos,
			Message: "impacc:allow-" + site.Name +
				" annotation needs a reason (\"//impacc:allow-" + site.Name + " why it is safe\")",
		})
	}
	for _, pkg := range targets {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				allows:   allows,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
			diags = append(diags, pass.diags...)
		}
	}
	suite := map[string]bool{}
	for _, a := range analyzers {
		suite[a.Name] = true
	}
	for _, site := range allows.sites {
		if site.used {
			continue
		}
		msg := " annotation suppresses nothing (no " + site.Name +
			" diagnostic on this line or the next); remove the stale escape hatch"
		if !suite[site.Name] {
			msg = " annotation names no analyzer of the suite; fix the name or remove it"
		}
		diags = append(diags, Diagnostic{Analyzer: "allowstale", Pos: site.Pos, Message: "impacc:allow-" + site.Name + msg})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// Message tie-break: several findings can share one position; the
		// full sort keeps impacc-vet's own output deterministic.
		return a.Message < b.Message
	})
	return diags, nil
}
