package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Preset resolves a textual system selector into a cluster description.
// The grammar is name[:int[,int...]]:
//
//	psg, hetero          fixed-size presets; arguments are rejected
//	beacon:N, titan:N    N nodes (default 2, at most MaxGeneratedNodes)
//	fattree:k            generated k-ary fat tree, k³/4 nodes (k even)
//	dragonfly:g,a,p      generated dragonfly, g*a*p nodes
//	gemini:X,Y,Z         generated 3D torus of Titan nodes, X*Y*Z nodes
//
// It is the shared grammar behind the CLIs' -system flags and the serve
// job API's "system" field; errors are phrased for direct display there.
func Preset(sel string) (*System, error) {
	name, argstr, hasArg := strings.Cut(sel, ":")
	var args []int
	if hasArg {
		for _, field := range strings.Split(argstr, ",") {
			v, err := strconv.Atoi(field)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("topo: bad parameter %q in system %q (positive integers only)", field, sel)
			}
			args = append(args, v)
		}
	}
	// oneArg resolves the 0-or-1 argument selectors (beacon:N, titan:N).
	oneArg := func(def int) (int, error) {
		switch len(args) {
		case 0:
			return def, nil
		case 1:
			if args[0] > MaxGeneratedNodes {
				return 0, fmt.Errorf("topo: %s would have %d nodes (max %d)", sel, args[0], MaxGeneratedNodes)
			}
			return args[0], nil
		}
		return 0, fmt.Errorf("topo: system %q takes one node count, got %d parameters", name, len(args))
	}
	switch name {
	case "psg", "hetero":
		if hasArg {
			return nil, fmt.Errorf("topo: system %q is fixed-size and takes no node count (got %q)", name, sel)
		}
		if name == "psg" {
			return PSG(), nil
		}
		return HeteroDemo(), nil
	case "beacon":
		n, err := oneArg(2)
		if err != nil {
			return nil, err
		}
		return Beacon(n), nil
	case "titan":
		n, err := oneArg(2)
		if err != nil {
			return nil, err
		}
		return Titan(n), nil
	case "fattree":
		if len(args) != 1 {
			return nil, fmt.Errorf("topo: system fattree takes exactly one parameter k (fattree:k), got %q", sel)
		}
		k := args[0]
		if k%2 != 0 {
			return nil, fmt.Errorf("topo: fattree parameter k must be even, got %d", k)
		}
		if !withinGenLimit(k/2, k, k/2) {
			return nil, fmt.Errorf("topo: fattree:%d would generate too many nodes (max %d)", k, MaxGeneratedNodes)
		}
		return FatTree(k), nil
	case "dragonfly":
		if len(args) != 3 {
			return nil, fmt.Errorf("topo: system dragonfly takes exactly three parameters (dragonfly:g,a,p), got %q", sel)
		}
		if !withinGenLimit(args...) {
			return nil, fmt.Errorf("topo: %s would generate too many nodes (max %d)", sel, MaxGeneratedNodes)
		}
		return Dragonfly(args[0], args[1], args[2]), nil
	case "gemini":
		if len(args) != 3 {
			return nil, fmt.Errorf("topo: system gemini takes exactly three parameters (gemini:X,Y,Z), got %q", sel)
		}
		if !withinGenLimit(args...) {
			return nil, fmt.Errorf("topo: %s would generate too many nodes (max %d)", sel, MaxGeneratedNodes)
		}
		return Gemini(args[0], args[1], args[2]), nil
	}
	return nil, fmt.Errorf("topo: unknown system %q (psg, beacon:N, titan:N, hetero, fattree:k, dragonfly:g,a,p, gemini:X,Y,Z)", sel)
}

// withinGenLimit reports whether the product of positive generator
// dimensions (the node count) is at most MaxGeneratedNodes. Each step is
// checked before it multiplies, so huge selectors cannot overflow int and
// wrap back under the bound.
func withinGenLimit(dims ...int) bool {
	n := 1
	for _, d := range dims {
		if d > MaxGeneratedNodes/n {
			return false
		}
		n *= d
	}
	return true
}

// Presets for the three evaluation systems of Table 1 plus the
// heterogeneous demo cluster of Figure 2. Rates are calibrated so the
// simulated machines land near published microbenchmark numbers for the
// real hardware; the paper comparison only relies on relative shapes.

// PSG returns one node of NVIDIA's PSG cluster: 2× Xeon E5-2698 v3,
// 8× Kepler GK210 (PCIe Gen3 x16), Mellanox InfiniBand FDR, MVAPICH2
// (MPI_THREAD_MULTIPLE). The paper uses a single PSG node.
func PSG() *System {
	node := NodeSpec{
		Name: "psg",
		Sockets: []SocketSpec{
			{Name: "E5-2698v3", Cores: 16, GFlopsDP: 589},
			{Name: "E5-2698v3", Cores: 16, GFlopsDP: 589},
		},
		MemoryBytes:    256 << 30,
		HostMemGBs:     11.0,
		HostCopySW:     1200,
		Inter:          LinkSpec{Latency: 120, GBs: 16.0, SWOverhead: 0},
		NUMAPenalty:    3.5,
		PageableFactor: 0.55,
		ShmFactor:      0.5,
		IPCOverhead:    3000,
		NIC: NICSpec{
			Name:   "mlx-fdr",
			Link:   LinkSpec{Latency: 1300, GBs: 6.0, SWOverhead: 600},
			Socket: 0,
			RDMA:   true,
		},
	}
	for i := 0; i < 8; i++ {
		node.Devices = append(node.Devices, DeviceSpec{
			Class:        NVIDIAGPU,
			Name:         fmt.Sprintf("GK210-%d", i),
			MemoryBytes:  12 << 30,
			Socket:       i / 4, // 4 GPUs per root complex
			GFlopsDP:     1200,
			GemmEff:      0.78,
			MemBWGBs:     240,
			StencilEff:   0.55,
			KernelLaunch: 8000, // 8us CUDA launch
			PCIe:         LinkSpec{Latency: 900, GBs: 11.8, SWOverhead: 4000},
			P2PGBs:       10.5,
		})
	}
	return &System{
		Name:           "PSG",
		Nodes:          []NodeSpec{node},
		MPIOverhead:    400,
		ThreadMultiple: true,
	}
}

// Beacon returns n nodes of the Beacon cluster: 2× Xeon E5-2670, 4× Xeon Phi
// 5110P (PCIe Gen2 x16), Mellanox InfiniBand FDR, Intel MPI
// (MPI_THREAD_MULTIPLE). The paper uses up to 32 of 48 nodes.
func Beacon(n int) *System {
	sys := &System{Name: "Beacon", MPIOverhead: 450, ThreadMultiple: true}
	sys.Nodes = make([]NodeSpec, 0, n)
	for i := 0; i < n; i++ {
		node := NodeSpec{
			Name: fmt.Sprintf("beacon%03d", i),
			Sockets: []SocketSpec{
				{Name: "E5-2670", Cores: 8, GFlopsDP: 166},
				{Name: "E5-2670", Cores: 8, GFlopsDP: 166},
			},
			MemoryBytes:    256 << 30,
			HostMemGBs:     9.0,
			HostCopySW:     1200,
			Inter:          LinkSpec{Latency: 150, GBs: 12.8, SWOverhead: 0},
			NUMAPenalty:    2.6,
			PageableFactor: 0.6,
			ShmFactor:      0.5,
			IPCOverhead:    3500,
			NIC: NICSpec{
				Name:   "mlx-fdr",
				Link:   LinkSpec{Latency: 1500, GBs: 5.6, SWOverhead: 700},
				Socket: 0,
				RDMA:   false, // MIC path stages through host (no GPUDirect)
			},
		}
		for d := 0; d < 4; d++ {
			node.Devices = append(node.Devices, DeviceSpec{
				Class:        XeonPhi,
				Name:         fmt.Sprintf("5110P-%d", d),
				MemoryBytes:  8 << 30,
				Socket:       d / 2, // 2 MICs per socket
				GFlopsDP:     1011,
				GemmEff:      0.70,
				MemBWGBs:     320,
				StencilEff:   0.40,
				KernelLaunch: 15000, // OpenCL launch path is slower
				PCIe:         LinkSpec{Latency: 1100, GBs: 6.0, SWOverhead: 6000},
				P2PGBs:       4.8,
			})
		}
		sys.Nodes = append(sys.Nodes, node)
	}
	return sys
}

// Titan returns n nodes of the Titan supercomputer: AMD Opteron 6274,
// 1× Tesla K20X per node (PCIe Gen2 x16), Cray Gemini interconnect, Cray
// MPICH2 (MPI_THREAD_MULTIPLE), GPUDirect RDMA exploited by IMPACC
// (paper §4.2, Figure 9 g-i).
func Titan(n int) *System {
	sys := &System{Name: "Titan", MPIOverhead: 500, ThreadMultiple: true}
	sys.Nodes = make([]NodeSpec, 0, n)
	for i := 0; i < n; i++ {
		node := NodeSpec{
			Name: fmt.Sprintf("titan%05d", i),
			Sockets: []SocketSpec{
				{Name: "Opteron-6274", Cores: 16, GFlopsDP: 141},
			},
			MemoryBytes:    32 << 30,
			HostMemGBs:     7.5,
			HostCopySW:     1500,
			Inter:          LinkSpec{Latency: 150, GBs: 10.0, SWOverhead: 0},
			NUMAPenalty:    1.0, // single socket: no NUMA penalty
			PageableFactor: 0.6,
			ShmFactor:      0.5,
			IPCOverhead:    3000,
			NIC: NICSpec{
				Name:   "gemini",
				Link:   LinkSpec{Latency: 1500, GBs: 4.5, SWOverhead: 800},
				Socket: 0,
				RDMA:   true,
			},
			Devices: []DeviceSpec{{
				Class:        NVIDIAGPU,
				Name:         "K20X",
				MemoryBytes:  6 << 30,
				Socket:       0,
				GFlopsDP:     1310,
				GemmEff:      0.80,
				MemBWGBs:     250,
				StencilEff:   0.55,
				KernelLaunch: 8000,
				PCIe:         LinkSpec{Latency: 1000, GBs: 6.0, SWOverhead: 4000},
				P2PGBs:       0, // one device per node: P2P never applies
			}},
		}
		sys.Nodes = append(sys.Nodes, node)
	}
	return sys
}

// HeteroDemo returns the heterogeneous three-node cluster used to exercise
// automatic task-device mapping (paper Figure 2): node 0 with two NVIDIA
// GPUs, node 1 with one NVIDIA GPU and two Xeon Phis, node 2 with CPU-only
// accelerators. Every node also exposes its CPU cores as one CPUAccel
// device per socket.
func HeteroDemo() *System {
	gpu := func(i, socket int) DeviceSpec {
		return DeviceSpec{
			Class: NVIDIAGPU, Name: fmt.Sprintf("gpu%d", i), MemoryBytes: 6 << 30,
			Socket: socket, GFlopsDP: 1200, GemmEff: 0.75, MemBWGBs: 240,
			StencilEff: 0.5, KernelLaunch: 8000,
			PCIe: LinkSpec{Latency: 900, GBs: 11.8, SWOverhead: 4000}, P2PGBs: 10,
		}
	}
	phi := func(i, socket int) DeviceSpec {
		return DeviceSpec{
			Class: XeonPhi, Name: fmt.Sprintf("mic%d", i), MemoryBytes: 8 << 30,
			Socket: socket, GFlopsDP: 1011, GemmEff: 0.7, MemBWGBs: 320,
			StencilEff: 0.4, KernelLaunch: 15000,
			PCIe: LinkSpec{Latency: 1100, GBs: 6.0, SWOverhead: 6000}, P2PGBs: 4.8,
		}
	}
	cpu := func(i, socket int) DeviceSpec {
		return DeviceSpec{
			Class: CPUAccel, Name: fmt.Sprintf("cpu%d", i),
			Socket: socket, GFlopsDP: 300, GemmEff: 0.85, MemBWGBs: 50,
			StencilEff: 0.6, KernelLaunch: 1500,
		}
	}
	base := NodeSpec{
		Sockets: []SocketSpec{
			{Name: "xeon", Cores: 8, GFlopsDP: 300},
			{Name: "xeon", Cores: 8, GFlopsDP: 300},
		},
		MemoryBytes: 64 << 30,
		HostMemGBs:  10, HostCopySW: 1200,
		Inter:          LinkSpec{Latency: 130, GBs: 14, SWOverhead: 0},
		NUMAPenalty:    3.0,
		PageableFactor: 0.55,
		ShmFactor:      0.5,
		IPCOverhead:    3000,
		NIC: NICSpec{Name: "ib", Link: LinkSpec{Latency: 1400, GBs: 5.5, SWOverhead: 650},
			Socket: 0, RDMA: true},
	}
	n0 := base
	n0.Name = "hetero0"
	n0.Devices = []DeviceSpec{gpu(0, 0), gpu(1, 1), cpu(0, 0), cpu(1, 1)}
	n1 := base
	n1.Name = "hetero1"
	n1.Devices = []DeviceSpec{gpu(0, 0), phi(0, 0), phi(1, 1), cpu(0, 0), cpu(1, 1)}
	n2 := base
	n2.Name = "hetero2"
	n2.Devices = []DeviceSpec{cpu(0, 0), cpu(1, 1)}
	return &System{
		Name:           "HeteroDemo",
		Nodes:          []NodeSpec{n0, n1, n2},
		MPIOverhead:    400,
		ThreadMultiple: true,
	}
}
