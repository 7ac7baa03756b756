// Package impacc is a Go reproduction of IMPACC — "A Tightly Integrated
// MPI+OpenACC Framework Exploiting Shared Memory Parallelism" (Kim, Lee,
// Vetter; HPDC 2016) — together with every substrate the paper depends on:
// a deterministic discrete-event cluster simulator with NUMA/PCIe/network
// cost models calibrated to the paper's PSG, Beacon, and Titan systems, a
// simulated accelerator runtime (CUDA/OpenCL stand-in), a threaded-MPI
// implementation, an OpenACC runtime, and the IMPACC directive compiler
// front-end.
//
// A program is an SPMD function executed by one Task per accelerator:
//
//	cfg := impacc.Config{System: impacc.PSG(), Mode: impacc.IMPACC, Backed: true}
//	report, err := impacc.Run(cfg, func(t *impacc.Task) {
//	    buf := t.Malloc(8 * 1024)
//	    if t.Rank() == 0 {
//	        t.Send(buf, 1024, impacc.Float64, 1, 0)
//	    } else if t.Rank() == 1 {
//	        t.Recv(buf, 1024, impacc.Float64, 0, 0)
//	    }
//	})
//
// Tasks expose the MPI surface (Send/Recv/Isend/Irecv/collectives), the
// OpenACC surface (DataEnter/DataExit/Update/Kernels/ACCWait), and the
// IMPACC extensions of §3.5: OnDevice() maps a call's buffer through the
// present table (sendbuf/recvbuf(device)), ReadOnly() enables node heap
// aliasing, and Async(q) places the call on a unified activity queue.
//
// Switching Config.Mode between IMPACC and Legacy runs the identical
// program under the paper's runtime or the traditional MPI+OpenACC
// baseline, which is how every evaluation figure is reproduced (see
// internal/bench and EXPERIMENTS.md).
package impacc

import (
	"io"

	"impacc/internal/acc"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// Core runtime types.
type (
	// Config describes one run: the target system, runtime mode, device
	// selection, pinning, features, and data backing.
	Config = core.Config
	// Task is one MPI task bound to one accelerator.
	Task = core.Task
	// Program is the SPMD body run by every task.
	Program = core.Program
	// Report summarizes a finished run.
	Report = core.Report
	// Request is a non-blocking communication handle (MPI_Request). It is a
	// small value, and the zero Request is MPI_REQUEST_NULL. The Wait that
	// completes a request frees it, after which every copy of the handle
	// is null: waiting on it again returns at once.
	Request = core.Request
	// Opt modifies an MPI call (the IMPACC directive clauses).
	Opt = core.Opt
	// Features toggles individual IMPACC techniques.
	Features = core.Features
	// Placement maps a rank to (node, device).
	Placement = core.Placement
	// Mode selects the runtime implementation.
	Mode = core.Mode
	// PinPolicy controls task-CPU pinning.
	PinPolicy = core.PinPolicy
	// Comm is an MPI communicator (MPI_Comm_split / MPI_Comm_dup).
	Comm = core.Comm
	// Tracer collects per-task execution spans when set on Config.Trace.
	Tracer = core.Tracer
	// Span is one traced virtual-time interval.
	Span = core.Span
	// DataRange describes one allocation's role in a structured data region.
	DataRange = core.DataRange
	// Status reports which message satisfied a receive (MPI_Status).
	Status = core.Status
)

// Memory and hardware types.
type (
	// Addr is an address in the unified node virtual address space.
	Addr = xmem.Addr
	// System describes a cluster.
	System = topo.System
	// DeviceClass identifies an accelerator kind.
	DeviceClass = topo.DeviceClass
	// ClassMask selects accelerator kinds (IMPACC_ACC_DEVICE_TYPE).
	ClassMask = topo.ClassMask
	// KernelSpec describes a compute-region launch.
	KernelSpec = device.KernelSpec
	// Datatype is an MPI basic datatype.
	Datatype = mpi.Datatype
	// ReduceOp is an MPI reduction operator.
	ReduceOp = mpi.Op
	// Dur is a span of virtual time (nanoseconds).
	Dur = sim.Dur
)

// Runtime modes.
const (
	// IMPACC is the paper's integrated runtime.
	IMPACC = core.IMPACC
	// Legacy is the traditional MPI+OpenACC baseline.
	Legacy = core.Legacy
)

// Pinning policies (paper §3.3).
const (
	PinDefault = core.PinDefault
	PinNear    = core.PinNear
	PinFar     = core.PinFar
	PinNone    = core.PinNone
)

// MPI datatypes.
const (
	Byte    = mpi.Byte
	Int32   = mpi.Int32
	Int64   = mpi.Int64
	Float32 = mpi.Float32
	Float64 = mpi.Float64
)

// Reduction operators.
const (
	Sum  = mpi.Sum
	Prod = mpi.Prod
	Max  = mpi.Max
	Min  = mpi.Min
)

// Receive wildcards.
const (
	AnySource = core.AnySource
	AnyTag    = core.AnyTag
)

// Device classes (acc_device_* values, Figure 2).
const (
	NVIDIAGPU = topo.NVIDIAGPU
	XeonPhi   = topo.XeonPhi
	AMDGPU    = topo.AMDGPU
	FPGA      = topo.FPGA
	CPUAccel  = topo.CPUAccel
)

// Kernel cost kinds.
const (
	KindMixed   = device.KindMixed
	KindCompute = device.KindCompute
	KindMemory  = device.KindMemory
)

// Data clause modes for DataEnter/DataExit.
const (
	Copyin  = acc.Copyin
	Create  = acc.Create
	Present = acc.Present
	Copyout = acc.Copyout
	Delete  = acc.Delete
)

// Run executes prog across one task per matching accelerator of
// cfg.System and returns the run report.
func Run(cfg Config, prog Program) (*Report, error) { return core.Run(cfg, prog) }

// OnDevice is the sendbuf(device)/recvbuf(device) clause: the MPI call uses
// the device copy of the named host data (paper §3.5).
func OnDevice() Opt { return core.OnDevice() }

// ReadOnly is the readonly attribute, enabling node heap aliasing (§3.8).
func ReadOnly() Opt { return core.ReadOnly() }

// Async places the MPI call on OpenACC activity queue q — the unified
// activity queue (§3.6). Requires Mode == IMPACC.
func Async(q int) Opt { return core.Async(q) }

// MaskOf builds a device-type selection, e.g. MaskOf(NVIDIAGPU, XeonPhi).
func MaskOf(classes ...DeviceClass) ClassMask { return topo.MaskOf(classes...) }

// ParseClassMask parses an IMPACC_ACC_DEVICE_TYPE string such as
// "nvidia|xeonphi" or "acc_device_cpu" (paper §3.2).
func ParseClassMask(s string) (ClassMask, error) { return topo.ParseClassMask(s) }

// PSG returns the paper's PSG system: one node, 2×Xeon E5-2698v3,
// 8×Kepler GK210 (Table 1).
func PSG() *System { return topo.PSG() }

// Beacon returns n Beacon nodes: 2×Xeon E5-2670, 4×Xeon Phi 5110P each.
func Beacon(n int) *System { return topo.Beacon(n) }

// Titan returns n Titan nodes: Opteron 6274 + Tesla K20X each, Gemini
// interconnect with GPUDirect RDMA.
func Titan(n int) *System { return topo.Titan(n) }

// HeteroDemo returns the heterogeneous three-node cluster of Figure 2.
func HeteroDemo() *System { return topo.HeteroDemo() }

// LoadSystem reads a JSON cluster description (see internal/topo for the
// schema), so programs can target machines beyond the built-in presets.
func LoadSystem(r io.Reader) (*System, error) { return topo.LoadSystem(r) }

// DefaultFeatures returns the canonical feature set for a mode.
func DefaultFeatures(m Mode) Features { return core.DefaultFeatures(m) }

// NewTracer returns an empty execution tracer for Config.Trace.
func NewTracer() *Tracer { return core.NewTracer() }

// BuildMapping computes the automatic task-device mapping (Figure 2)
// without running anything.
func BuildMapping(sys *System, mask ClassMask, maxTasks int) []Placement {
	return core.BuildMapping(sys, mask, maxTasks)
}
