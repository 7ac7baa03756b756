// Command impacc-vet is the project's custom static-analysis gate: a
// multichecker over the determinism and process-discipline invariants that
// every IMPACC result rests on. It loads the requested packages (default
// ./...), runs the internal/analysis suite, and prints one line per
// finding; a non-zero exit means the tree violates an invariant.
//
// Usage:
//
//	go run ./cmd/impacc-vet [-json file] [-list] [packages...]
//
// The analyzers and their escape hatches are documented in DESIGN.md §9;
// each finding names the //impacc:allow-<analyzer> annotation that can
// suppress it (with a mandatory reason).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"impacc/internal/analysis"
	"impacc/internal/analysis/atomicmix"
	"impacc/internal/analysis/globalrand"
	"impacc/internal/analysis/hashcoverage"
	"impacc/internal/analysis/maporder"
	"impacc/internal/analysis/observerpure"
	"impacc/internal/analysis/parkdiscipline"
	"impacc/internal/analysis/sharddiscipline"
	"impacc/internal/analysis/spanbalance"
	"impacc/internal/analysis/unused"
	"impacc/internal/analysis/walltime"
)

// suite is the full analyzer lineup, in documentation order.
var suite = []*analysis.Analyzer{
	walltime.Analyzer,
	globalrand.Analyzer,
	maporder.Analyzer,
	parkdiscipline.Analyzer,
	spanbalance.Analyzer,
	sharddiscipline.Analyzer,
	atomicmix.Analyzer,
	observerpure.Analyzer,
	hashcoverage.Analyzer,
	unused.Analyzer,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impacc-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "also write findings as JSON to this file ('-' for stdout)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: impacc-vet [-json file] [-list] [packages...]\n\n")
		fmt.Fprintf(stderr, "Runs the IMPACC determinism/process-discipline analyzer suite\n")
		fmt.Fprintf(stderr, "over the given package patterns (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "impacc-vet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(suite, append(pkgs, loader.Users()...))
	if err != nil {
		fmt.Fprintf(stderr, "impacc-vet: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	for i, d := range diags {
		// Paths relative to cwd keep the output stable across checkouts.
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: %s: %s\n", diags[i].Pos, d.Analyzer, d.Message)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, pkgs, diags); err != nil {
			fmt.Fprintf(stderr, "impacc-vet: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "impacc-vet: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable artifact format uploaded by CI on
// gate failure.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func writeJSON(path string, stdout io.Writer, pkgs []*analysis.Package, diags []analysis.Diagnostic) error {
	// The analyzed-package list makes coverage auditable: the tree gate
	// asserts new packages appear here, so nothing ships outside the vet
	// net by accident.
	packages := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if p.Standard || p.DepOnly {
			continue
		}
		packages = append(packages, p.ImportPath)
	}
	sort.Strings(packages)
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	out := struct {
		Packages []string      `json:"packages"`
		Findings []jsonFinding `json:"findings"`
	}{packages, findings}
	var w io.Writer
	if path == "-" {
		w = stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
