package fault

import "testing"

// FuzzParseSpec feeds arbitrary text to the -chaos grammar: ParseSpec must
// never panic, and every spec it accepts must print a canonical String()
// that parses back to the identical String(). Seeds live in
// testdata/fuzz/FuzzParseSpec; run with
//
//	go test -run '^$' -fuzz FuzzParseSpec -fuzztime 15s ./internal/fault/
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(text)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String() %q does not parse: %v", text, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("ParseSpec(%q): String() %q re-parses to %q", text, canon, got)
		}
	})
}
