package topo

import (
	"bytes"
	"slices"
	"testing"

	"impacc/internal/sim"
)

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

// FuzzLoadSystem feeds arbitrary bytes to the topology JSON loader:
// LoadSystem must never panic, and every system it accepts must have at
// most MaxGeneratedNodes nodes and no negative duration. Seeds live in
// testdata/fuzz/FuzzLoadSystem; run with
//
//	go test -run '^$' -fuzz FuzzLoadSystem -fuzztime 15s ./internal/topo/
func FuzzLoadSystem(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := LoadSystem(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(sys.Nodes) < 1 || len(sys.Nodes) > MaxGeneratedNodes {
			t.Fatalf("accepted %d nodes, want 1..%d", len(sys.Nodes), MaxGeneratedNodes)
		}
		durs := []sim.Dur{sys.MPIOverhead}
		if sys.Topo != nil {
			durs = append(durs, sys.Topo.HopLatency)
		}
		for _, n := range sys.Nodes {
			durs = append(durs, n.HostCopySW, n.IPCOverhead, n.Inter.Latency, n.Inter.SWOverhead,
				n.NIC.Link.Latency, n.NIC.Link.SWOverhead)
			for _, d := range n.Devices {
				durs = append(durs, d.KernelLaunch, d.PCIe.Latency, d.PCIe.SWOverhead)
			}
		}
		if m := slices.Min(durs); m < 0 {
			t.Fatalf("accepted a negative duration %v", m)
		}
	})
}
