package topo

import (
	"slices"
	"strings"
	"testing"

	"impacc/internal/sim"
)

const miniConfig = `{
  "name": "mini",
  "mpiOverhead": 400,
  "threadMultiple": true,
  "nodes": [{
    "name": "n",
    "count": 3,
    "sockets": [{"name": "cpu", "cores": 8, "gflopsDP": 300}],
    "memoryGB": 64,
    "hostMemGBs": 10,
    "hostCopySW": 1200,
    "numaPenalty": 1,
    "nic": {"name": "eth", "link": {"latency": 2000, "gbs": 1.25}, "rdma": false},
    "devices": [{
      "class": "nvidia", "name": "gpu0", "memoryGB": 8,
      "gflopsDP": 1000, "gemmEff": 0.8, "memBWGBs": 200,
      "stencilEff": 0.5, "kernelLaunch": 8000,
      "pcie": {"latency": 900, "gbs": 12, "swOverhead": 4000}, "p2pGBs": 10
    }, {
      "class": "cpu", "name": "cpuacc", "gflopsDP": 300, "gemmEff": 0.8,
      "memBWGBs": 40, "stencilEff": 0.5, "kernelLaunch": 1500
    }]
  }]
}`

func TestLoadSystem(t *testing.T) {
	sys, err := LoadSystem(strings.NewReader(miniConfig))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "mini" || !sys.ThreadMultiple || sys.MPIOverhead != 400 {
		t.Fatalf("system header = %+v", sys)
	}
	if len(sys.Nodes) != 3 {
		t.Fatalf("count replication: %d nodes, want 3", len(sys.Nodes))
	}
	if sys.Nodes[0].Name != "n-0" || sys.Nodes[2].Name != "n-2" {
		t.Fatalf("replicated names: %q, %q", sys.Nodes[0].Name, sys.Nodes[2].Name)
	}
	n := sys.Nodes[1]
	if n.MemoryBytes != 64<<30 || n.HostMemGBs != 10 {
		t.Fatalf("node fields: %+v", n)
	}
	if len(n.Devices) != 2 || n.Devices[0].Class != NVIDIAGPU || n.Devices[1].Class != CPUAccel {
		t.Fatalf("devices: %+v", n.Devices)
	}
	if n.Devices[0].PCIe.GBs != 12 || n.Devices[0].MemoryBytes != 8<<30 {
		t.Fatalf("gpu spec: %+v", n.Devices[0])
	}
	if countDevices(sys, MaskOf(NVIDIAGPU)) != 3 {
		t.Fatal("device counting over loaded system wrong")
	}
}

func TestLoadSystemErrors(t *testing.T) {
	cases := []struct {
		name, mut, wantErr string
	}{
		{"no name", `"name": "mini"`, "needs a name"},
		{"bad class", `"class": "nvidia", "name": "gpu0"`, "exactly one type"},
		{"bad socket", `"name": "cpuacc"`, "out of range"},
		{"no nic bw", `"gbs": 1.25`, "must be positive"},
		{"unknown field", `"mpiOverhead": 400`, "unknown field"},
		{"too many nodes", `"count": 3`, "takes the system past 65536 nodes"},
		{"negative mpi", `"mpiOverhead": 400`, "mpiOverhead must be >= 0"},
		{"negative nic", `"latency": 2000`, "must be >= 0"},
		{"negative copy", `"hostCopySW": 1200`, "must be >= 0"},
		{"negative launch", `"kernelLaunch": 8000`, "kernelLaunch and pcie latency"},
		{"nic socket", `"rdma": false`, "nic socket 1 out of range"},
	}
	muts := map[string]string{
		"no name":         `"name": ""`,
		"bad class":       `"class": "nvidia|cpu", "name": "gpu0"`,
		"bad socket":      `"name": "cpuacc", "socket": 7`,
		"no nic bw":       `"gbs": 0`,
		"unknown field":   `"mpiOverhead": 400, "bogus": 1`,
		"too many nodes":  `"count": 200000`,
		"negative mpi":    `"mpiOverhead": -1`,
		"negative nic":    `"latency": -100000`,
		"negative copy":   `"hostCopySW": -1`,
		"negative launch": `"kernelLaunch": -8000`,
		"nic socket":      `"rdma": false, "socket": 1`,
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			broken := strings.Replace(miniConfig, c.mut, muts[c.name], 1)
			if broken == miniConfig {
				t.Fatalf("mutation %q did not apply", c.name)
			}
			if _, err := LoadSystem(strings.NewReader(broken)); err == nil ||
				!strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want contains %q", err, c.wantErr)
			}
		})
	}
	if _, err := LoadSystem(strings.NewReader(`{"name":"x","nodes":[]}`)); err == nil {
		t.Fatal("empty nodes must fail")
	}
	if _, err := LoadSystem(strings.NewReader(`{`)); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestLoadedSystemRuns(t *testing.T) {
	// A loaded system must be usable by the fabric.
	sys, err := LoadSystem(strings.NewReader(miniConfig))
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine()
	f := NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	if arrive, _ := f.NetInjectAsync(0, 1, 1<<20); arrive <= 0 {
		t.Fatal("fabric over loaded system inert")
	}
	if f.CanP2P(0, 0, 1) {
		t.Fatal("GPU and integrated CPU accel must not be P2P")
	}
}
