package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"impacc/internal/analysis"
	"impacc/internal/analysis/unused"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{
		"walltime", "globalrand", "maporder", "parkdiscipline", "spanbalance",
		"sharddiscipline", "atomicmix", "observerpure", "hashcoverage", "unused",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// TestTreeClean is the gate itself: the whole module must vet clean. A
// deliberately reintroduced time.Now() in internal/sim (or anywhere else)
// fails this test and therefore CI.
func TestTreeClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-json", "-", "impacc/..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("impacc-vet impacc/... exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	// The findings block is the tail of stdout (after zero finding lines).
	var report struct {
		Packages []string `json:"packages"`
		Findings []struct {
			Analyzer string `json:"analyzer"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out.String())
	}
	if len(report.Findings) != 0 {
		t.Fatalf("clean run reported findings: %s", out.String())
	}
	// Coverage assertion: every package with its own determinism or
	// wall-clock discipline story must be under the vet net. A package
	// missing here was silently excluded from analysis.
	covered := map[string]bool{}
	for _, p := range report.Packages {
		covered[p] = true
	}
	for _, want := range []string{
		"impacc/internal/sim",
		"impacc/internal/core",
		"impacc/internal/bench",
		"impacc/internal/fault",
		"impacc/internal/serve",
		"impacc/cmd/impacc-serve",
	} {
		if !covered[want] {
			t.Errorf("package %s not analyzed (packages: %v)", want, report.Packages)
		}
	}
}

// TestBadFixtureFails proves the gate actually bites: the fixture under
// testdata/bad violates walltime, globalrand, maporder, atomicmix and
// unused, and the run must exit non-zero with one finding per violation.
func TestBadFixtureFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{"-json", "-", "./testdata/bad"}, &out, &errb)
	if code != 1 {
		t.Fatalf("expected exit 1 on bad fixture, got %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	for _, want := range []string{
		"walltime", "globalrand", "maporder", "atomicmix", "allowstale", "unused",
		"time.Now", "rand.Intn", "append inside map iteration",
		"call to Clock transitively", "mixed access tears", "suppresses nothing",
		"func Orphan is never used", "method (*Knob).Get is never used",
		"field Knob.Level is never written", "impacc:allow-unused annotation suppresses nothing",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("findings missing %q:\n%s", want, out.String())
		}
	}
}

// TestBadFixtureExactSet pins the gate's behavior to the byte: the findings
// on testdata/bad must equal testdata/bad/expected.json exactly — analyzer,
// position, and message. A new analyzer that starts (or stops) firing on the
// fixture, or a reworded diagnostic, must update the committed expectation.
func TestBadFixtureExactSet(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-json", "-", "./testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("expected exit 1 on bad fixture, got %d (stderr: %s)", code, errb.String())
	}
	type finding struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}
	var got, want struct {
		Findings []finding `json:"findings"`
	}
	// stdout carries the human-readable finding lines first, then the JSON
	// block (the -json '-' form); parse from the opening brace.
	raw := out.Bytes()
	if i := bytes.IndexByte(raw, '{'); i >= 0 {
		raw = raw[i:]
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join("testdata", "bad", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad expected.json: %v", err)
	}
	if len(got.Findings) != len(want.Findings) {
		t.Errorf("got %d findings, want %d", len(got.Findings), len(want.Findings))
	}
	for i := 0; i < len(got.Findings) || i < len(want.Findings); i++ {
		var g, w *finding
		if i < len(got.Findings) {
			g = &got.Findings[i]
		}
		if i < len(want.Findings) {
			w = &want.Findings[i]
		}
		switch {
		case g == nil:
			t.Errorf("missing expected finding #%d: %+v", i, *w)
		case w == nil:
			t.Errorf("unexpected extra finding #%d: %+v", i, *g)
		case *g != *w:
			t.Errorf("finding #%d mismatch:\n  got  %+v\n  want %+v", i, *g, *w)
		}
	}
}

// TestUnusedCountsEveryUser pins where unused looks for references.
// core.(*Runtime).Events has its only caller in the nested cmd/impacc-perf
// module, which `go list ./...` never reaches: a full run must not flag it,
// and without the users Load adds it would. A partial run must flag nothing
// the full run does not, so vetting sim alone still sees core's calls.
func TestUnusedCountsEveryUser(t *testing.T) {
	loader := analysis.NewLoader()
	pkgs, err := loader.Load("impacc/...")
	if err != nil {
		t.Fatal(err)
	}
	check := []*analysis.Analyzer{unused.Analyzer}
	flagsEvents := func(diags []analysis.Diagnostic) bool {
		return slices.ContainsFunc(diags, func(d analysis.Diagnostic) bool {
			return strings.Contains(d.Message, "method (*Runtime).Events ")
		})
	}
	if diags, err := analysis.Run(check, append(pkgs, loader.Users()...)); err != nil || flagsEvents(diags) {
		t.Fatalf("full run flags (*Runtime).Events (err %v): %v", err, diags)
	}
	if diags, err := analysis.Run(check, pkgs); err != nil || !flagsEvents(diags) {
		t.Fatalf("run without the nested module's users does not flag (*Runtime).Events (err %v)", err)
	}
	var out, errb bytes.Buffer
	if code := realMain([]string{"impacc/internal/sim"}, &out, &errb); code != 0 {
		t.Fatalf("impacc-vet impacc/internal/sim exit %d:\n%s%s", code, out.String(), errb.String())
	}
}

// TestJSONArtifact checks the CI artifact file path: findings are written
// as structured JSON with repo-relative file paths.
func TestJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var out, errb bytes.Buffer
	if code := realMain([]string{"-json", path, "./testdata/bad"}, &out, &errb); code != 1 {
		t.Fatalf("expected exit 1, got %d (stderr: %s)", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bad JSON artifact: %v\n%s", err, data)
	}
	if len(report.Findings) < 3 {
		t.Fatalf("expected >= 3 findings in artifact, got %d", len(report.Findings))
	}
	for _, f := range report.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("artifact file path should be repo-relative, got %q", f.File)
		}
	}
}
