package accparse

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzAccParse feeds arbitrary source through the whole front end: Parse,
// then Lower, and RewriteThreadLocal. Neither may panic; a rejected source
// fails with a *ParseError. A parsed directive printed back through
// Clause.String parses to the same directive, and the plan lowered from the
// printed directives prints (Op.String) the same as the original plan. The
// rewrite keeps every line and marks every global it reports. Seeds live in
// testdata/fuzz/FuzzAccParse; run with
//
//	go test -run '^$' -fuzz FuzzAccParse -fuzztime 15s ./internal/accparse/
func FuzzAccParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		out, globals := RewriteThreadLocal(src)
		if got, want := strings.Count(out, "\n"), strings.Count(src, "\n"); got != want {
			t.Fatalf("rewrite has %d line breaks, the source %d", got, want)
		}
		lines := strings.Split(out, "\n")
		for _, g := range globals {
			if !strings.Contains(lines[g.Line-1], "__thread") {
				t.Fatalf("global %s reported on line %d, which the rewrite left as %q", g.Name, g.Line, lines[g.Line-1])
			}
		}

		file, err := Parse("fuzz.c", src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error %T (%v), want *ParseError", err, err)
			}
			return
		}
		ops, err := Lower(file)
		if err != nil {
			t.Fatalf("Lower: %v", err)
		}

		reprinted := &File{Name: file.Name}
		for _, d := range file.Directives {
			words := []string{d.Kind.String()}
			for _, c := range d.Clauses {
				words = append(words, c.String())
			}
			body := strings.Join(words, " ")
			rd, err := parseDirective(file.Name, body, d.Line)
			if err != nil {
				t.Fatalf("printed directive %q does not parse: %v", body, err)
			}
			if rd.Kind != d.Kind || !slices.EqualFunc(rd.Clauses, d.Clauses, sameClause) {
				t.Fatalf("printed directive %q parses to %v %v, want %v %v", body, rd.Kind, rd.Clauses, d.Kind, d.Clauses)
			}
			rd.Stmt, rd.MPICall, rd.EndLine = d.Stmt, d.MPICall, d.EndLine
			reprinted.Directives = append(reprinted.Directives, rd)
		}
		rops, err := Lower(reprinted)
		if err != nil {
			t.Fatalf("Lower of the printed directives: %v", err)
		}
		if !slices.EqualFunc(ops, rops, func(a, b Op) bool { return a.String() == b.String() && a.Line == b.Line }) {
			t.Fatalf("printed directives lower to %v, want %v", rops, ops)
		}
	})
}

// sameClause compares two clauses by name and arguments; a reparsed clause
// carries the line it was parsed at, so Line is not compared.
func sameClause(a, b Clause) bool { return a.Name == b.Name && slices.Equal(a.Args, b.Args) }

// TestRewriteStaticAfterAnyBlank is a FuzzAccParse regression: a static
// declaration whose keyword a tab ends was reported as a global but left
// without __thread.
func TestRewriteStaticAfterAnyBlank(t *testing.T) {
	for src, want := range map[string]string{
		"static\tint a;":                  "static __thread\tint a;",
		"void f() {\n  static\tint b;\n}": "void f() {\n  static __thread\tint b;\n}",
		"static double norm;":             "static __thread double norm;",
	} {
		if got, _ := RewriteThreadLocal(src); got != want {
			t.Errorf("RewriteThreadLocal(%q) = %q, want %q", src, got, want)
		}
	}
}
