package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseSystemPresets(t *testing.T) {
	cases := map[string]struct {
		nodes int
		ok    bool
	}{
		"psg":       {1, true},
		"beacon:4":  {4, true},
		"titan:16":  {16, true},
		"beacon":    {2, true}, // default node count
		"hetero":    {3, true},
		"beacon:0":  {0, false},
		"beacon:-1": {0, false},
		"beacon:x":  {0, false},
		"cray":      {0, false},
	}
	for in, want := range cases {
		sys, err := parseSystem(in)
		if want.ok && (err != nil || len(sys.Nodes) != want.nodes) {
			t.Errorf("parseSystem(%q) = %v, %v; want %d nodes", in, sys, err, want.nodes)
		}
		if !want.ok && err == nil {
			t.Errorf("parseSystem(%q) should fail", in)
		}
	}
}

func TestParseSystemJSONFile(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "minicluster.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("testdata not present")
	}
	sys, err := parseSystem(path)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "mini" || len(sys.Nodes) != 2 {
		t.Fatalf("loaded system = %q with %d nodes", sys.Name, len(sys.Nodes))
	}
	if _, err := parseSystem("missing.json"); err == nil {
		t.Fatal("missing config file must fail")
	}
}
