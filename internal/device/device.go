// Package device is the simulated accelerator runtime — the stand-in for
// the CUDA Driver API and OpenCL runtime the paper's IMPACC runtime is
// built on (§3.1, §3.7). It provides per-node device objects, device memory
// allocation inside the unified node virtual address space, synchronous and
// asynchronous memory copies priced by the topology fabric, in-order
// activity queues (streams) with completion events and cross-stream waits
// (cuEventRecord / cuStreamWaitEvent equivalents), and kernel
// launches with gang/worker/vector geometry over an analytic cost model.
//
// Device "memory" is real host RAM behind the unified address space, so
// kernels can execute genuine computations; at extreme scale, allocations
// may be unbacked and kernels cost-only — the control path is identical.
package device

import (
	"fmt"
	"strconv"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// Telemetry family names.
const (
	// KernelDurationNs is a histogram of kernel durations, labeled by
	// node, dev, and stream (Figure 11's kernel column, per queue).
	KernelDurationNs = "device_kernel_duration_ns"
	// CopyBytes is a histogram of copy sizes, labeled by node, dev, and
	// dir (HtoH/HtoD/DtoH/DtoD — Figure 14's copy categories).
	CopyBytes = "device_copy_bytes"
)

var (
	kernelDurations = telemetry.NewFamily(KernelDurationNs, "kernel durations by activity queue",
		telemetry.KindHistogram, "node", "dev", "stream")
	copySizes = telemetry.NewFamily(CopyBytes, "memory copy sizes by direction",
		telemetry.KindHistogram, "node", "dev", "dir")
)

// API distinguishes the CUDA-style driver from the OpenCL-style runtime.
// The distinction shows up only in the present table entry layout (Figure
// 3): an OpenCL device gets minted buffer handles. Launch cost comes from
// the device spec's KernelLaunch, whatever the API.
type API int

const (
	// CUDA-style: device pointers are raw addresses (CUdeviceptr).
	CUDA API = iota
	// OpenCL-style: memory objects are handles; the runtime reserves a
	// host virtual range per buffer for the mapped address (paper §3.4).
	OpenCL
)

func (a API) String() string {
	if a == CUDA {
		return "cuda"
	}
	return "opencl"
}

// APIFor returns the accelerator API the IMPACC runtime would drive the
// device class with: CUDA for NVIDIA GPUs, OpenCL for everything else
// (paper §3.1: kernels are generated in CUDA C and OpenCL C).
func APIFor(c topo.DeviceClass) API {
	if c == topo.NVIDIAGPU {
		return CUDA
	}
	return OpenCL
}

// Runtime is the per-node device runtime: one per simulated node.
type Runtime struct {
	Eng     *sim.Engine
	Fab     *topo.Fabric
	NodeIdx int
	Spec    *topo.NodeSpec
	Devices []*Device
	// Faults, when set, injects transient device-copy failures that the
	// transfer path absorbs by re-charging the copy (a driver-level retry).
	// The internal/fault package's Plan satisfies it.
	Faults CopyFaults
}

// CopyFaults is the slice of a chaos plan the device runtime consults.
type CopyFaults interface {
	// CopyFail reports whether the next copy attempt on node fails
	// transiently (one deterministic draw per call).
	CopyFail(node int) bool
	// CopyRetries bounds re-attempts before a copy error surfaces.
	CopyRetries() int
}

// NewRuntime builds device objects for every accelerator of node nodeIdx.
func NewRuntime(eng *sim.Engine, fab *topo.Fabric, nodeIdx int) *Runtime {
	spec := &fab.Sys.Nodes[nodeIdx]
	rt := &Runtime{Eng: eng, Fab: fab, NodeIdx: nodeIdx, Spec: spec}
	for i := range spec.Devices {
		d := &Device{
			rt:      rt,
			Index:   i,
			Spec:    &spec.Devices[i],
			API:     APIFor(spec.Devices[i].Class),
			compute: eng.NewFIFOResource(fmt.Sprintf("%s/dev%d", spec.Name, i)),
		}
		rt.Devices = append(rt.Devices, d)
	}
	return rt
}

// Device is one accelerator.
type Device struct {
	rt      *Runtime
	Index   int
	Spec    *topo.DeviceSpec
	API     API
	compute *sim.FIFOResource

	nextHandle uint64
}

// NewHandle mints an OpenCL-style memory-object handle.
func (d *Device) NewHandle() uint64 {
	d.nextHandle++
	return d.nextHandle
}

// KernelKind selects which hardware bound prices a kernel.
type KernelKind int

const (
	// KindMixed takes the max of the compute and memory bounds.
	KindMixed KernelKind = iota
	// KindCompute is flop-bound (e.g. DGEMM, EP).
	KindCompute
	// KindMemory is bandwidth-bound (e.g. Jacobi stencils).
	KindMemory
)

// KernelSpec describes one compute-region launch (an OpenACC parallel or
// kernels region lowered by the compiler).
type KernelSpec struct {
	Name  string
	FLOPs float64 // double-precision operations performed
	Bytes float64 // device memory traffic generated
	Kind  KernelKind
	// Gangs/Workers/Vector record the OpenACC launch geometry (§2.3). The
	// cost model and the reports ignore them.
	Gangs, Workers, Vector int
	// Body, when non-nil, is executed for real at kernel completion so
	// applications produce genuine numerical results.
	Body func()
}

// Duration prices the kernel on device spec d.
func Duration(d *topo.DeviceSpec, k KernelSpec) sim.Dur {
	flopRate := d.GFlopsDP * d.GemmEff * 1e9
	memRate := d.MemBWGBs * d.StencilEff * 1e9
	var secs float64
	switch k.Kind {
	case KindCompute:
		secs = k.FLOPs / flopRate
	case KindMemory:
		secs = k.Bytes / memRate
	default:
		cf := k.FLOPs / flopRate
		cm := k.Bytes / memRate
		if cf > cm {
			secs = cf
		} else {
			secs = cm
		}
	}
	return sim.DurFromSeconds(secs)
}

// Stats accumulates per-context transfer and kernel accounting, feeding the
// breakdown figures (Figure 11, Figure 14).
type Stats struct {
	HtoDCount, DtoHCount, DtoDCount, HtoHCount int64
	HtoDBytes, DtoHBytes, DtoDBytes, HtoHBytes int64
	HtoDTime, DtoHTime, DtoDTime, HtoHTime     sim.Dur
	KernelCount                                int64
	KernelTime                                 sim.Dur
}

// Add accumulates other into s.
func (s *Stats) Add(o *Stats) {
	s.HtoDCount += o.HtoDCount
	s.DtoHCount += o.DtoHCount
	s.DtoDCount += o.DtoDCount
	s.HtoHCount += o.HtoHCount
	s.HtoDBytes += o.HtoDBytes
	s.DtoHBytes += o.DtoHBytes
	s.DtoDBytes += o.DtoDBytes
	s.HtoHBytes += o.HtoHBytes
	s.HtoDTime += o.HtoDTime
	s.DtoHTime += o.DtoHTime
	s.DtoDTime += o.DtoDTime
	s.HtoHTime += o.HtoHTime
	s.KernelCount += o.KernelCount
	s.KernelTime += o.KernelTime
}

// TraceSink receives the context's execution trace: spans for every kernel
// and copy (stream operations carry the activity-queue lane, synchronous
// transfers the host lane) and the ordering edges between stream
// operations. Implemented by the core tracer; nil when tracing is off.
// Span IDs are pre-allocated with NewID at enqueue time so dependency
// edges can reference operations that have not completed yet.
type TraceSink interface {
	NewID() uint64
	Span(id uint64, stream int, kind, name string, start, end sim.Time, bytes int64)
	Edge(kind string, from, to uint64, at sim.Time)
}

// Context is a task's view of one device: it binds the device to the task's
// address space and pinned CPU socket (which determines NUMA transfer
// penalties). It corresponds to a CUDA context / OpenCL command-queue
// owner.
type Context struct {
	Dev    *Device
	Space  *xmem.Space
	Socket int // pinned CPU socket; -1 if unpinned (OS placement)
	Stats  Stats
	Backed bool // whether allocations carry real storage
	// Sink, when non-nil, receives the context's causal execution trace.
	Sink TraceSink
	// Pinned marks the context's host buffers as page-locked. The IMPACC
	// runtime pre-pins its buffers (paper §3.7); legacy application
	// buffers are pageable and transfer slower.
	Pinned bool

	unpinnedFlip bool
	// copyBytes holds the per-direction copy-size histograms, indexed by
	// Direction. Contexts on the same device share the series.
	copyBytes [4]*telemetry.Histogram
}

// NewContext binds device dev to an address space and pin socket.
func (rt *Runtime) NewContext(dev int, space *xmem.Space, socket int, backed, pinned bool) *Context {
	c := &Context{Dev: rt.Devices[dev], Space: space, Socket: socket, Backed: backed, Pinned: pinned}
	node, di := rt.Spec.Name, strconv.Itoa(dev)
	for _, dir := range []Direction{HtoH, HtoD, DtoH, DtoD} {
		c.copyBytes[dir] = rt.Eng.Metrics.Histogram(copySizes, node, di, dir.String())
	}
	return c
}

// effSocket resolves the socket a transfer is initiated from. Unpinned
// contexts model OS placement by alternating near and far sockets, giving
// the averaged NUMA penalty an unpinned thread observes.
func (c *Context) effSocket() int {
	if c.Socket >= 0 {
		return c.Socket
	}
	if len(c.Dev.rt.Spec.Sockets) < 2 {
		return 0
	}
	c.unpinnedFlip = !c.unpinnedFlip
	if c.unpinnedFlip {
		far := c.Dev.Spec.Socket + 1
		if far >= len(c.Dev.rt.Spec.Sockets) {
			far = 0
		}
		return far
	}
	return c.Dev.Spec.Socket
}

// MemAlloc allocates device memory (cuMemAlloc / clCreateBuffer) and maps
// it into the context's address space.
func (c *Context) MemAlloc(size int64) (xmem.Addr, error) {
	if c.Dev.Spec.Class.Integrated() {
		// Integrated accelerators share host memory (paper §2.4): the
		// "device allocation" is host memory.
		return c.Space.AllocHost(size, c.Backed)
	}
	used := c.Space.DeviceUsed(c.Dev.Index)
	if used+size > c.Dev.Spec.MemoryBytes {
		return xmem.Nil, fmt.Errorf("device %s: out of memory (%d used + %d requested > %d)",
			c.Dev.Spec.Name, used, size, c.Dev.Spec.MemoryBytes)
	}
	return c.Space.AllocDevice(c.Dev.Index, size, c.Backed)
}

// MemFree releases device memory.
func (c *Context) MemFree(addr xmem.Addr) error { return c.Space.Free(addr) }
