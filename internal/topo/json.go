package topo

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"impacc/internal/sim"
)

// JSON cluster descriptions let users target their own machines without
// writing Go: every field of System/NodeSpec/DeviceSpec maps directly.
// Durations are nanoseconds. A minimal config:
//
//	{
//	  "name": "mini",
//	  "mpiOverhead": 400,
//	  "threadMultiple": true,
//	  "nodes": [{
//	    "name": "n0",
//	    "sockets": [{"name": "cpu", "cores": 8, "gflopsDP": 300}],
//	    "hostMemGBs": 10, "numaPenalty": 1,
//	    "nic": {"name": "eth", "link": {"latency": 2000, "gbs": 1}},
//	    "devices": [{
//	      "class": "nvidia", "name": "gpu0", "memoryGB": 8,
//	      "gflopsDP": 1000, "gemmEff": 0.8, "memBWGBs": 200,
//	      "stencilEff": 0.5, "kernelLaunch": 8000,
//	      "pcie": {"latency": 900, "gbs": 12}, "p2pGBs": 10
//	    }]
//	  }]
//	}

type jsonLink struct {
	Latency    int64   `json:"latency"`
	GBs        float64 `json:"gbs"`
	SWOverhead int64   `json:"swOverhead"`
}

func (l jsonLink) spec() LinkSpec {
	return LinkSpec{Latency: dur(l.Latency), GBs: l.GBs, SWOverhead: dur(l.SWOverhead)}
}

// dur converts config nanoseconds to a simulation duration.
func dur(ns int64) sim.Dur { return sim.Dur(ns) }

type jsonDevice struct {
	Class        string   `json:"class"`
	Name         string   `json:"name"`
	MemoryGB     float64  `json:"memoryGB"`
	Socket       int      `json:"socket"`
	GFlopsDP     float64  `json:"gflopsDP"`
	GemmEff      float64  `json:"gemmEff"`
	MemBWGBs     float64  `json:"memBWGBs"`
	StencilEff   float64  `json:"stencilEff"`
	KernelLaunch int64    `json:"kernelLaunch"`
	PCIe         jsonLink `json:"pcie"`
	P2PGBs       float64  `json:"p2pGBs"`
}

type jsonSocket struct {
	Name     string  `json:"name"`
	Cores    int     `json:"cores"`
	GFlopsDP float64 `json:"gflopsDP"`
}

type jsonNIC struct {
	Name   string   `json:"name"`
	Link   jsonLink `json:"link"`
	Socket int      `json:"socket"`
	RDMA   bool     `json:"rdma"`
}

type jsonNode struct {
	Name           string       `json:"name"`
	Count          int          `json:"count"` // replicate this node N times (default 1)
	Sockets        []jsonSocket `json:"sockets"`
	Devices        []jsonDevice `json:"devices"`
	MemoryGB       float64      `json:"memoryGB"`
	HostMemGBs     float64      `json:"hostMemGBs"`
	HostCopySW     int64        `json:"hostCopySW"`
	Inter          jsonLink     `json:"inter"`
	NUMAPenalty    float64      `json:"numaPenalty"`
	PageableFactor float64      `json:"pageableFactor"`
	ShmFactor      float64      `json:"shmFactor"`
	IPCOverhead    int64        `json:"ipcOverhead"`
	NIC            jsonNIC      `json:"nic"`
}

type jsonTopo struct {
	Kind       string `json:"kind"`
	Params     []int  `json:"params"`
	HopLatency int64  `json:"hopLatency"`
}

type jsonSystem struct {
	Name           string     `json:"name"`
	MPIOverhead    int64      `json:"mpiOverhead"`
	ThreadMultiple bool       `json:"threadMultiple"`
	Topo           *jsonTopo  `json:"topo"`
	Nodes          []jsonNode `json:"nodes"`
}

// LoadSystem reads a JSON cluster description and validates it.
func LoadSystem(r io.Reader) (*System, error) {
	var js jsonSystem
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("topo: parsing system config: %w", err)
	}
	if js.Name == "" {
		return nil, fmt.Errorf("topo: system config needs a name")
	}
	if len(js.Nodes) == 0 {
		return nil, fmt.Errorf("topo: system %q has no nodes", js.Name)
	}
	if js.MPIOverhead < 0 {
		return nil, fmt.Errorf("topo: system %q: mpiOverhead must be >= 0", js.Name)
	}
	sys := &System{
		Name:           js.Name,
		MPIOverhead:    dur(js.MPIOverhead),
		ThreadMultiple: js.ThreadMultiple,
	}
	for ni, jn := range js.Nodes {
		node, err := jn.spec(ni)
		if err != nil {
			return nil, err
		}
		count := max(jn.Count, 1)
		if count > MaxGeneratedNodes-len(sys.Nodes) {
			return nil, fmt.Errorf("topo: node %q: count %d takes the system past %d nodes", jn.Name, count, MaxGeneratedNodes)
		}
		for c := 0; c < count; c++ {
			n := node
			if count > 1 {
				n.Name = fmt.Sprintf("%s-%d", node.Name, c)
			}
			sys.Nodes = append(sys.Nodes, n)
		}
	}
	if js.Topo != nil {
		spec, err := js.Topo.spec(len(sys.Nodes))
		if err != nil {
			return nil, err
		}
		sys.Topo = spec
	}
	return sys, nil
}

// spec validates a JSON topology annotation: the kind must be a known
// generator family whose parameters imply exactly the declared node count,
// so hop distances derived from node indices stay meaningful.
func (jt *jsonTopo) spec(nNodes int) (*TopoSpec, error) {
	want := 0
	switch jt.Kind {
	case "fattree":
		if len(jt.Params) != 1 || jt.Params[0] < 2 || jt.Params[0]%2 != 0 {
			return nil, fmt.Errorf("topo: topo kind fattree needs params [k] with k even and >= 2, got %v", jt.Params)
		}
		k := jt.Params[0]
		want = k * k * k / 4
	case "dragonfly", "torus3d":
		if len(jt.Params) != 3 || jt.Params[0] < 1 || jt.Params[1] < 1 || jt.Params[2] < 1 {
			return nil, fmt.Errorf("topo: topo kind %s needs three positive params, got %v", jt.Kind, jt.Params)
		}
		want = jt.Params[0] * jt.Params[1] * jt.Params[2]
	default:
		return nil, fmt.Errorf("topo: unknown topo kind %q (fattree, dragonfly, torus3d)", jt.Kind)
	}
	if want != nNodes {
		return nil, fmt.Errorf("topo: topo %s%v implies %d nodes but the system declares %d", jt.Kind, jt.Params, want, nNodes)
	}
	if jt.HopLatency < 0 {
		return nil, fmt.Errorf("topo: topo hopLatency must be >= 0, got %d", jt.HopLatency)
	}
	return &TopoSpec{Kind: jt.Kind, Params: append([]int(nil), jt.Params...), HopLatency: dur(jt.HopLatency)}, nil
}

func (jn jsonNode) spec(idx int) (NodeSpec, error) {
	if jn.Name == "" {
		return NodeSpec{}, fmt.Errorf("topo: node %d needs a name", idx)
	}
	if strings.ContainsRune(jn.Name, '\x1f') {
		// Telemetry joins a series' label values, node names among them,
		// with this separator.
		return NodeSpec{}, fmt.Errorf("topo: node %q: name must not contain the unit separator U+001F", jn.Name)
	}
	if len(jn.Sockets) == 0 {
		return NodeSpec{}, fmt.Errorf("topo: node %q needs at least one socket", jn.Name)
	}
	if jn.HostMemGBs <= 0 {
		return NodeSpec{}, fmt.Errorf("topo: node %q: hostMemGBs must be positive", jn.Name)
	}
	if jn.NIC.Link.GBs <= 0 {
		return NodeSpec{}, fmt.Errorf("topo: node %q: nic.link.gbs must be positive", jn.Name)
	}
	if jn.NIC.Socket < 0 || jn.NIC.Socket >= len(jn.Sockets) {
		return NodeSpec{}, fmt.Errorf("topo: node %q: nic socket %d out of range", jn.Name, jn.NIC.Socket)
	}
	if min(jn.HostCopySW, jn.IPCOverhead, jn.Inter.Latency, jn.Inter.SWOverhead, jn.NIC.Link.Latency, jn.NIC.Link.SWOverhead) < 0 {
		return NodeSpec{}, fmt.Errorf("topo: node %q: hostCopySW, ipcOverhead and link latencies and swOverheads must be >= 0", jn.Name)
	}
	node := NodeSpec{
		Name:           jn.Name,
		MemoryBytes:    int64(jn.MemoryGB * (1 << 30)),
		HostMemGBs:     jn.HostMemGBs,
		HostCopySW:     dur(jn.HostCopySW),
		Inter:          jn.Inter.spec(),
		NUMAPenalty:    jn.NUMAPenalty,
		PageableFactor: jn.PageableFactor,
		ShmFactor:      jn.ShmFactor,
		IPCOverhead:    dur(jn.IPCOverhead),
		NIC: NICSpec{
			Name: jn.NIC.Name, Link: jn.NIC.Link.spec(),
			Socket: jn.NIC.Socket, RDMA: jn.NIC.RDMA,
		},
	}
	if node.NUMAPenalty == 0 {
		node.NUMAPenalty = 1
	}
	for _, s := range jn.Sockets {
		node.Sockets = append(node.Sockets, SocketSpec{Name: s.Name, Cores: s.Cores, GFlopsDP: s.GFlopsDP})
	}
	for di, d := range jn.Devices {
		mask, err := ParseClassMask(d.Class)
		if err != nil {
			return NodeSpec{}, fmt.Errorf("topo: node %q device %d: %w", jn.Name, di, err)
		}
		var class DeviceClass
		found := false
		for c := NVIDIAGPU; c <= CPUAccel; c++ {
			if mask == MaskOf(c) {
				class, found = c, true
				break
			}
		}
		if !found {
			return NodeSpec{}, fmt.Errorf("topo: node %q device %d: class must name exactly one type, got %q",
				jn.Name, di, d.Class)
		}
		if d.Socket < 0 || d.Socket >= len(jn.Sockets) {
			return NodeSpec{}, fmt.Errorf("topo: node %q device %d: socket %d out of range",
				jn.Name, di, d.Socket)
		}
		if min(d.KernelLaunch, d.PCIe.Latency, d.PCIe.SWOverhead) < 0 {
			return NodeSpec{}, fmt.Errorf("topo: node %q device %d: kernelLaunch and pcie latency and swOverhead must be >= 0",
				jn.Name, di)
		}
		if !class.Integrated() && (d.GFlopsDP <= 0 || d.PCIe.GBs <= 0) {
			return NodeSpec{}, fmt.Errorf("topo: node %q device %d: gflopsDP and pcie.gbs must be positive",
				jn.Name, di)
		}
		node.Devices = append(node.Devices, DeviceSpec{
			Class: class, Name: d.Name, MemoryBytes: int64(d.MemoryGB * (1 << 30)),
			Socket: d.Socket, GFlopsDP: d.GFlopsDP, GemmEff: d.GemmEff,
			MemBWGBs: d.MemBWGBs, StencilEff: d.StencilEff,
			KernelLaunch: dur(d.KernelLaunch), PCIe: d.PCIe.spec(), P2PGBs: d.P2PGBs,
		})
	}
	return node, nil
}
