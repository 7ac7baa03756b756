package telemetry

import (
	"strings"
	"testing"
)

// The Prometheus text format gives label values exactly three escapes:
// backslash, newline, and double quote. promEscape must produce them and
// promLabels must not mangle them further (its old fmt %q path re-escaped
// the backslashes promEscape had just written, so a newline rendered as \\n
// and scrapers read a literal backslash-n).
func TestPromEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"plain", "plain"},
		{"no escape needed: {x=1}", "no escape needed: {x=1}"},
		{"line1\nline2", `line1\nline2`},
		{`back\slash`, `back\\slash`},
		{`quoted "v"`, `quoted \"v\"`},
		{"all\n\"three\"\\", `all\n\"three\"\\`},
		{`pre-escaped \n stays literal`, `pre-escaped \\n stays literal`},
	}
	for _, c := range cases {
		if got := promEscape(c.in); got != c.want {
			t.Errorf("promEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPromLabels(t *testing.T) {
	cases := []struct {
		name   string
		labels []Label
		extra  []Label
		want   string
	}{
		{"empty", nil, nil, ""},
		{"one", []Label{{"op", "send"}}, nil, `{op="send"}`},
		{"two plus extra", []Label{{"op", "send"}, {"rank", "3"}},
			[]Label{{"le", "+Inf"}}, `{op="send",rank="3",le="+Inf"}`},
		{"newline", []Label{{"msg", "a\nb"}}, nil, `{msg="a\nb"}`},
		{"backslash", []Label{{"path", `a\b`}}, nil, `{path="a\\b"}`},
		{"quote", []Label{{"q", `say "hi"`}}, nil, `{q="say \"hi\""}`},
		{"combined", []Label{{"v", "x\n\"y\"\\z"}}, nil, `{v="x\n\"y\"\\z"}`},
	}
	for _, c := range cases {
		if got := promLabels(c.labels, c.extra...); got != c.want {
			t.Errorf("%s: promLabels = %q, want %q", c.name, got, c.want)
		}
	}
}

// End-to-end: a hostile label value survives a registry snapshot into the
// exposition format with single (not double) escaping.
func TestPrometheusLabelEscapingEndToEnd(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "demo", "who", "a\n\"b\"\\c").Inc()
	var b strings.Builder
	if err := reg.Snapshot(0).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `demo_total{who="a\n\"b\"\\c"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}

// A # HELP docstring gets the text format's two escapes — backslash and
// newline — and nothing else (quotes stay as they are).
func TestPrometheusHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "a \\ path\nand a \"quote\"").Inc()
	var b strings.Builder
	if err := reg.Snapshot(0).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_total a \\ path\nand a "quote"` + "\n"
	if !strings.HasPrefix(b.String(), want) {
		t.Fatalf("exposition starts %q, want %q", b.String(), want)
	}
}
