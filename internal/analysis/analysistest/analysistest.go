// Package analysistest runs an analyzer over a testdata directory and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A line expecting a diagnostic carries a comment of the form
//
//	code() // want `regexp` `another regexp`
//
// with one back-quoted (or double-quoted) regular expression per expected
// diagnostic on that line. Lines without a want comment must produce no
// diagnostics.
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"impacc/internal/analysis"
)

// sharedLoader caches stdlib and module dependencies across the many
// testdata packages a test binary loads.
var sharedLoader = analysis.NewLoader()

// wantRe pulls the expectation list off a line; expRe then splits it into
// individual quoted regexps.
var (
	wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	expRe  = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")
)

type expectation struct {
	re    *regexp.Regexp
	raw   string
	found bool
}

// Run loads dir as one package, applies the analyzer, and reports any
// mismatch between produced diagnostics and // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, dir string) { //impacc:allow-unused test-support package: every analyzer test drives its fixture through it
	t.Helper()
	pkg, err := sharedLoader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, []*analysis.Package{pkg})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				key := fmt.Sprintf("%s:%d", fname, line)
				for _, em := range expRe.FindAllStringSubmatch(m[1], -1) {
					raw := em[1]
					if raw == "" {
						raw = em[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		// A fixture may carry annotations for other analyzers; whether
		// those suppress anything is not this analyzer's to judge.
		if d.Analyzer == "allowstale" && !strings.HasPrefix(d.Message, "impacc:allow-"+a.Name+" ") {
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if !exp.found && exp.re.MatchString(d.Message) {
				exp.found = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.found {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, exp.raw)
			}
		}
	}

	if t.Failed() {
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&sb, "  %s\n", d)
		}
		t.Logf("all diagnostics from %s on %s:\n%s", a.Name, dir, sb.String())
	}
}
