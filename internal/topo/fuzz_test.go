package topo

import "testing"

// FuzzPreset feeds arbitrary selectors to the -system grammar: Preset must
// never panic, and must return either an error or a system with at least
// one node. Seeds live in testdata/fuzz/FuzzPreset; run with
//
//	go test -run '^$' -fuzz FuzzPreset -fuzztime 15s ./internal/topo/
func FuzzPreset(f *testing.F) {
	f.Fuzz(func(t *testing.T, sel string) {
		sys, err := Preset(sel)
		if err != nil {
			return
		}
		if sys == nil || len(sys.Nodes) < 1 {
			t.Fatalf("Preset(%q) = %v with no error, want at least one node", sel, sys)
		}
	})
}
