// Package topo describes heterogeneous accelerator clusters: nodes, NUMA
// sockets, accelerator devices, PCIe root complexes, NICs, and the
// interconnection network (paper §2.1, Figure 1). It is the stand-in for the
// real PSG, Beacon, and Titan machines of Table 1: all paper effects — the
// NUMA transfer penalty, direct device-to-device PCIe copies, GPUDirect
// RDMA — are functions of this topology plus the link cost model in
// fabric.go.
package topo

import (
	"fmt"
	"strings"

	"impacc/internal/sim"
)

// DeviceClass identifies a kind of accelerator. It mirrors the OpenACC
// device-type values used by IMPACC_ACC_DEVICE_TYPE (paper §3.2, Figure 2).
type DeviceClass int

// Accelerator classes. CPUAccel models IMPACC's "set of CPU cores as an
// accelerator" (paper §2.1); it is an integrated accelerator sharing host
// memory, so it needs no PCIe transfers.
const (
	NVIDIAGPU DeviceClass = iota
	XeonPhi
	AMDGPU
	FPGA
	CPUAccel
)

func (c DeviceClass) String() string {
	switch c {
	case NVIDIAGPU:
		return "nvidia"
	case XeonPhi:
		return "xeonphi"
	case AMDGPU:
		return "radeon"
	case FPGA:
		return "fpga"
	case CPUAccel:
		return "cpu"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(c))
	}
}

// Integrated reports whether the class shares host memory (no discrete
// device memory and no PCIe transfer needed, paper §2.4).
func (c DeviceClass) Integrated() bool { return c == CPUAccel }

// LinkSpec is the cost model of a point-to-point link or bus: a transfer of
// B bytes takes Latency + B/Bandwidth, plus a per-operation software
// overhead charged to the initiating processor.
type LinkSpec struct {
	Latency    sim.Dur // propagation + setup latency per message
	GBs        float64 // sustained bandwidth in gigabytes per second
	SWOverhead sim.Dur // driver/runtime software overhead per operation
}

// Occupy returns only the bandwidth (occupancy) portion of a transfer.
func (l LinkSpec) Occupy(n int64) sim.Dur {
	if n < 0 {
		n = 0
	}
	return sim.DurFromSeconds(float64(n) / (l.GBs * 1e9))
}

// DeviceSpec describes one accelerator installed in a node.
type DeviceSpec struct {
	Class       DeviceClass
	Name        string
	MemoryBytes int64
	Socket      int // index of the near socket (PCIe root complex)

	// Compute model.
	GFlopsDP     float64 // peak double-precision rate
	GemmEff      float64 // fraction of peak achieved by DGEMM kernels
	MemBWGBs     float64 // device memory bandwidth
	StencilEff   float64 // fraction of MemBW achieved by stencil kernels
	KernelLaunch sim.Dur // host-side kernel launch overhead

	// PCIe is the device's link to its root complex. Ignored for
	// integrated (CPUAccel) devices.
	PCIe LinkSpec
	// P2PGBs is the direct device-to-device bandwidth when both devices
	// share a root complex (GPUDirect / DirectGMA). Zero disables P2P.
	P2PGBs float64
}

// SocketSpec describes one CPU socket.
type SocketSpec struct {
	Name  string
	Cores int
	// GFlopsDP is the socket's aggregate double-precision rate, used for
	// CPUAccel devices and host-side compute.
	GFlopsDP float64
}

// NICSpec describes the node's network adapter.
type NICSpec struct {
	Name   string
	Link   LinkSpec
	Socket int  // near socket
	RDMA   bool // supports direct accelerator memory access (GPUDirect RDMA)
}

// NodeSpec describes one compute node.
type NodeSpec struct {
	Name        string
	Sockets     []SocketSpec
	Devices     []DeviceSpec
	MemoryBytes int64

	// HostMemGBs is the sustained host memcpy bandwidth (one HtoH copy).
	HostMemGBs float64
	// HostCopySW is the software overhead of initiating a host copy.
	HostCopySW sim.Dur

	// Inter is the inter-socket link (QPI / HyperTransport).
	Inter LinkSpec
	// NUMAPenalty divides effective PCIe bandwidth when the initiating
	// CPU is on a different socket than the device (paper §3.3/Fig 8,
	// "up to 3.5 times").
	NUMAPenalty float64

	// PageableFactor multiplies PCIe bandwidth for transfers from
	// pageable (unpinned) host memory. The IMPACC runtime "internally
	// uses the pre-pinned host memory" (paper §3.7); the legacy baseline
	// transfers application buffers directly.
	PageableFactor float64
	// ShmFactor multiplies host memcpy bandwidth for legacy inter-process
	// shared-memory transport copies (cache-cold, two processes).
	ShmFactor float64
	// IPCOverhead is the per-message synchronization cost of the legacy
	// inter-process transport.
	IPCOverhead sim.Dur

	NIC NICSpec
}

// SameRootComplex reports whether devices a and b hang off the same PCIe
// root complex, the condition for direct DtoD copies (paper §3.7).
func (n *NodeSpec) SameRootComplex(a, b int) bool {
	da, db := n.Devices[a], n.Devices[b]
	if da.Class.Integrated() || db.Class.Integrated() {
		return false
	}
	return da.Socket == db.Socket
}

// System is a full cluster description.
type System struct {
	Name  string
	Nodes []NodeSpec
	// MPIOverhead is the software cost of one MPI call into the
	// underlying library.
	MPIOverhead sim.Dur
	// ThreadMultiple reports whether the underlying MPI library supports
	// MPI_THREAD_MULTIPLE; if false, IMPACC serializes internode calls
	// per node (paper §3.7).
	ThreadMultiple bool
	// Topo, when non-nil, describes a generated interconnect shape (see
	// generate.go): internode transfers then pay an extra per-hop latency
	// via HopExtra. Nil means a flat network (all hand-written presets).
	Topo *TopoSpec `json:",omitempty"`
}

// ClassMask is a bit field of DeviceClass values, mirroring the
// acc_device_nvidia | acc_device_xeonphi style selection of Figure 2.
type ClassMask uint32

// MaskOf builds a mask from classes. MaskOf() is the empty mask, which
// selectors treat as "default" (all devices).
func MaskOf(classes ...DeviceClass) ClassMask {
	var m ClassMask
	for _, c := range classes {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether the mask selects class c. The empty mask selects
// everything (acc_device_default).
func (m ClassMask) Has(c DeviceClass) bool {
	if m == 0 {
		return true
	}
	return m&(1<<uint(c)) != 0
}

// ParseClassMask parses an IMPACC_ACC_DEVICE_TYPE environment string such
// as "nvidia", "acc_device_xeonphi", or "nvidia|xeonphi" (paper §3.2).
// Empty input and "default"/"acc_device_default" select every device.
func ParseClassMask(s string) (ClassMask, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	var m ClassMask
	for _, part := range strings.Split(s, "|") {
		name := strings.TrimPrefix(strings.TrimSpace(part), "acc_device_")
		switch name {
		case "default", "":
			return 0, nil
		case "nvidia":
			m |= MaskOf(NVIDIAGPU)
		case "xeonphi":
			m |= MaskOf(XeonPhi)
		case "radeon":
			m |= MaskOf(AMDGPU)
		case "fpga":
			m |= MaskOf(FPGA)
		case "cpu", "host":
			m |= MaskOf(CPUAccel)
		default:
			return 0, fmt.Errorf("topo: unknown device type %q", part)
		}
	}
	return m, nil
}

func (m ClassMask) String() string {
	if m == 0 {
		return "default"
	}
	out := ""
	for c := NVIDIAGPU; c <= CPUAccel; c++ {
		if m&(1<<uint(c)) != 0 {
			if out != "" {
				out += "|"
			}
			out += c.String()
		}
	}
	return out
}
