package topo

import (
	"strings"
	"testing"
)

// TestPresetGrammar table-drives the selector grammar: valid selectors
// resolve with the expected node count; invalid arity, non-integer
// parameters, and arguments on fixed-size presets are rejected with clear
// errors.
func TestPresetGrammar(t *testing.T) {
	valid := []struct {
		sel   string
		nodes int
	}{
		{"psg", 1},
		{"hetero", 3},
		{"beacon", 2},
		{"beacon:5", 5},
		{"titan", 2},
		{"titan:64", 64},
		{"fattree:2", 2},
		{"fattree:4", 16},
		{"fattree:8", 128},
		{"dragonfly:2,2,2", 8},
		{"dragonfly:4,4,4", 64},
		{"gemini:2,2,2", 8},
		{"gemini:4,2,1", 8},
		{"gemini:16,8,8", 1024},
	}
	for _, tc := range valid {
		sys, err := Preset(tc.sel)
		if err != nil {
			t.Errorf("Preset(%q): unexpected error %v", tc.sel, err)
			continue
		}
		if len(sys.Nodes) != tc.nodes {
			t.Errorf("Preset(%q): %d nodes, want %d", tc.sel, len(sys.Nodes), tc.nodes)
		}
	}

	invalid := []struct {
		sel  string
		want string // substring of the error
	}{
		{"psg:8", "fixed-size"},
		{"psg:1", "fixed-size"},
		{"hetero:3", "fixed-size"},
		{"beacon:0", "bad parameter"},
		{"beacon:-2", "bad parameter"},
		{"beacon:x", "bad parameter"},
		{"beacon:2,3", "one node count"},
		{"titan:", "bad parameter"},
		{"fattree", "exactly one parameter"},
		{"fattree:3", "must be even"},
		{"fattree:2,2", "exactly one parameter"},
		{"fattree:100", "max"},
		{"dragonfly:4", "three parameters"},
		{"dragonfly:4,4", "three parameters"},
		{"dragonfly:4,4,4,4", "three parameters"},
		{"dragonfly:64,64,64", "max"},
		{"gemini:16,8", "three parameters"},
		{"gemini:0,2,2", "bad parameter"},
		{"gemini:100,100,100", "max"},
		// Sizes whose naive product overflows int and wraps back under the
		// bound, and fixed-shape selectors past it.
		{"fattree:4194304", "max"},
		{"dragonfly:2147483648,2147483648,4", "max"},
		{"gemini:4294967296,4294967296,1", "max"},
		{"titan:65537", "max"},
		{"beacon:9999999999", "max"},
		{"nosuch", "unknown system"},
		{"nosuch:4", "unknown system"},
	}
	for _, tc := range invalid {
		sys, err := Preset(tc.sel)
		if err == nil {
			t.Errorf("Preset(%q): got %d-node system, want error containing %q", tc.sel, len(sys.Nodes), tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Preset(%q): error %q does not contain %q", tc.sel, err, tc.want)
		}
	}
}

// TestGeneratedShapeInvariants checks every generated topology for the
// invariants the runtime relies on: expected node and NIC counts, a
// TopoSpec that yields symmetric non-negative hop extras, and a strictly
// positive MinNetLatency so the sharded engine keeps a usable lookahead.
func TestGeneratedShapeInvariants(t *testing.T) {
	cases := []struct {
		sel   string
		nodes int
	}{
		{"fattree:4", 16},
		{"fattree:6", 54},
		{"dragonfly:3,2,2", 12},
		{"dragonfly:2,3,1", 6},
		{"gemini:2,3,4", 24},
		{"gemini:4,4,4", 64},
	}
	for _, tc := range cases {
		sys, err := Preset(tc.sel)
		if err != nil {
			t.Fatalf("Preset(%q): %v", tc.sel, err)
		}
		if len(sys.Nodes) != tc.nodes {
			t.Fatalf("%s: %d nodes, want %d", tc.sel, len(sys.Nodes), tc.nodes)
		}
		if sys.Topo == nil {
			t.Fatalf("%s: generated system has no TopoSpec", tc.sel)
		}
		if sys.Topo.HopLatency <= 0 {
			t.Errorf("%s: HopLatency %v, want > 0", tc.sel, sys.Topo.HopLatency)
		}
		names := make(map[string]bool, tc.nodes)
		for i := range sys.Nodes {
			n := &sys.Nodes[i]
			if n.Name == "" || names[n.Name] {
				t.Fatalf("%s: node %d has missing or duplicate name %q", tc.sel, i, n.Name)
			}
			names[n.Name] = true
			if n.NIC.Link.GBs <= 0 || n.NIC.Link.Latency <= 0 {
				t.Fatalf("%s: node %d NIC link %+v not positive", tc.sel, i, n.NIC.Link)
			}
			if len(n.Devices) != 1 {
				t.Fatalf("%s: node %d has %d devices, want 1", tc.sel, i, len(n.Devices))
			}
		}
		if min := sys.MinNetLatency(); min <= 0 {
			t.Errorf("%s: MinNetLatency %v, want > 0", tc.sel, min)
		}
		// Hop extras: zero on the diagonal, symmetric, and >= 0 everywhere
		// (the MinNetLatency lookahead bound depends on that).
		for i := 0; i < len(sys.Nodes); i++ {
			if d := sys.HopExtra(i, i); d != 0 {
				t.Fatalf("%s: HopExtra(%d,%d) = %v, want 0", tc.sel, i, i, d)
			}
			for j := i + 1; j < len(sys.Nodes); j++ {
				dij, dji := sys.HopExtra(i, j), sys.HopExtra(j, i)
				if dij != dji {
					t.Fatalf("%s: HopExtra(%d,%d)=%v != HopExtra(%d,%d)=%v", tc.sel, i, j, dij, j, i, dji)
				}
				if dij < 0 {
					t.Fatalf("%s: HopExtra(%d,%d)=%v < 0", tc.sel, i, j, dij)
				}
			}
		}
	}
}

// TestHopDistances pins a few known hop counts per generator family.
func TestHopDistances(t *testing.T) {
	ft := &TopoSpec{Kind: "fattree", Params: []int{4}}
	// k=4: 2 hosts per edge switch, pods of 4.
	for _, tc := range []struct{ a, b, want int }{
		{0, 1, 0}, // same edge switch
		{0, 2, 2}, // same pod, different edge switch
		{0, 4, 4}, // different pod
		{3, 2, 0},
		{15, 0, 4},
	} {
		if got := ft.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("fattree:4 Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}

	df := &TopoSpec{Kind: "dragonfly", Params: []int{3, 2, 2}}
	// 3 groups, 2 routers/group, 2 hosts/router. Node i: router i/2, group i/4.
	for _, tc := range []struct{ a, b, want int }{
		{0, 1, 0}, // same router
		{0, 2, 1}, // same group, other router
		{0, 4, 2}, // group 0 -> group 1: gateway in group 0 is router 1 (local hop), router 4/2=2 %2=0 == srcGroup 0 % 2 (no dst-side hop)
		{2, 4, 1}, // src router is already the gateway
	} {
		if got := df.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("dragonfly:3,2,2 Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}

	tor := &TopoSpec{Kind: "torus3d", Params: []int{4, 4, 4}}
	for _, tc := range []struct{ a, b, want int }{
		{0, 1, 0},  // +x neighbor: one hop, zero extra
		{0, 3, 0},  // wraparound -x neighbor
		{0, 2, 1},  // two hops in x
		{0, 4, 0},  // +y neighbor
		{0, 21, 2}, // (1,1,1): three hops
		{0, 42, 5}, // (2,2,2): the far corner, six hops
	} {
		if got := tor.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("torus3d 4x4x4 Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
