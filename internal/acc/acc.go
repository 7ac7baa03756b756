// Package acc implements the OpenACC runtime a task programs against: data
// constructs maintaining the present table (§3.4), update directives,
// parallel/kernels launches, asynchronous activity queues (§3.6), and the
// runtime library routines acc_deviceptr / acc_hostptr /
// acc_get_device_type. Directive syntax is handled by package accparse;
// this package is the execution environment those directives lower to.
package acc

import (
	"fmt"
	"maps"
	"slices"

	"impacc/internal/device"
	"impacc/internal/ptable"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// SyncQueue is the queue number used for synchronous operations (an
// OpenACC construct without an async clause).
const SyncQueue = 0

// EnterMode selects the data clause semantics of an enter-data construct.
type EnterMode int

// Enter-data clauses.
const (
	Copyin  EnterMode = iota // allocate + copy host→device
	Create                   // allocate only
	Present                  // require already present
)

// ExitMode selects the data clause semantics of an exit-data construct.
type ExitMode int

// Exit-data clauses.
const (
	Copyout ExitMode = iota // copy device→host + deallocate
	Delete                  // deallocate only
)

// Env is one task's OpenACC runtime environment, bound to the task's device
// context.
type Env struct {
	Ctx *device.Context
	PT  *ptable.Table

	streams map[int]*device.Stream
	// WaitTime accumulates host time blocked in acc wait operations, for
	// the synchronization-cost breakdowns.
	WaitTime sim.Dur
}

// NewEnv returns an environment over ctx with an empty present table.
func NewEnv(ctx *device.Context) *Env {
	return &Env{Ctx: ctx, PT: ptable.New(), streams: map[int]*device.Stream{}}
}

// DeviceType returns the attached accelerator's class
// (acc_get_device_type, paper §3.2).
func (e *Env) DeviceType() topo.DeviceClass { return e.Ctx.Dev.Spec.Class }

// Integrated reports whether the attached accelerator shares host memory.
func (e *Env) Integrated() bool { return e.DeviceType().Integrated() }

// Stream returns the device activity queue for async value q, creating it
// on first use.
func (e *Env) Stream(q int) *device.Stream {
	if s, ok := e.streams[q]; ok {
		return s
	}
	s := e.Ctx.NewStream(q)
	e.streams[q] = s
	return s
}

// Close shuts down all streams created by this environment, in ascending
// queue order: each close wakes a stream process, so the order is part of
// the run's event sequence.
func (e *Env) Close() {
	for _, q := range e.queues() {
		e.streams[q].Close()
	}
}

// queues returns the numbers of the environment's queues in ascending order.
func (e *Env) queues() []int { return slices.Sorted(maps.Keys(e.streams)) }

// DataEnter implements "#pragma acc enter data" over one host range. With
// Copyin or Create, a device buffer is allocated and registered in the
// present table (refcounted if already present). It returns the device
// address.
func (e *Env) DataEnter(p *sim.Proc, host xmem.Addr, n int64, mode EnterMode) (xmem.Addr, error) {
	if e.Integrated() {
		// Integrated accelerators share host memory: mapping and copies
		// are elided (paper §2.4).
		return host, nil
	}
	if ent, ok := e.PT.Retain(host); ok {
		return ent.Dev + (host - ent.Host), nil
	}
	if mode == Present {
		return xmem.Nil, fmt.Errorf("acc: present(%#x): data not present", uint64(host))
	}
	dev, err := e.Ctx.MemAlloc(n)
	if err != nil {
		return xmem.Nil, err
	}
	var handle uint64
	if e.Ctx.Dev.API == device.OpenCL {
		handle = e.Ctx.Dev.NewHandle()
	}
	if _, err := e.PT.Insert(host, dev, n, e.Ctx.Dev.Index, handle); err != nil {
		return xmem.Nil, err
	}
	if mode == Copyin {
		if err := e.Ctx.Transfer(p, dev, host, n); err != nil {
			return xmem.Nil, err
		}
	}
	return dev, nil
}

// DataExit implements "#pragma acc exit data" over one host range: the
// refcount drops, and on the last reference the device buffer is copied
// back (Copyout) and freed.
func (e *Env) DataExit(p *sim.Proc, host xmem.Addr, mode ExitMode) error {
	if e.Integrated() {
		return nil
	}
	ent, last, err := e.PT.Release(host)
	if err != nil {
		return err
	}
	if !last {
		return nil
	}
	if mode == Copyout {
		if err := e.Ctx.Transfer(p, ent.Host, ent.Dev, ent.Size); err != nil {
			return err
		}
	}
	return e.Ctx.MemFree(ent.Dev)
}

// resolve maps a host sub-range to its device range.
func (e *Env) resolve(host xmem.Addr, n int64) (xmem.Addr, error) {
	ent, off, ok := e.PT.FindHost(host)
	if !ok {
		return xmem.Nil, fmt.Errorf("acc: %#x not present on device", uint64(host))
	}
	if n < 0 || n > ent.Size-off {
		return xmem.Nil, &xmem.RangeError{Op: "acc: update", Addr: host, N: n, Off: off, Size: ent.Size}
	}
	return ent.Dev + xmem.Addr(off), nil
}

// UpdateDevice implements "#pragma acc update device(...)": host→device
// refresh of a present sub-range. async < 0 runs synchronously; otherwise
// the copy is enqueued on queue async.
func (e *Env) UpdateDevice(p *sim.Proc, host xmem.Addr, n int64, async int) error {
	if e.Integrated() {
		return nil
	}
	dev, err := e.resolve(host, n)
	if err != nil {
		return err
	}
	if async < 0 {
		err = e.Ctx.Transfer(p, dev, host, n)
		return err
	}
	e.Stream(async).EnqueueCopy(dev, host, n)
	return nil
}

// UpdateHost implements "#pragma acc update self(...)": device→host.
func (e *Env) UpdateHost(p *sim.Proc, host xmem.Addr, n int64, async int) error {
	if e.Integrated() {
		return nil
	}
	dev, err := e.resolve(host, n)
	if err != nil {
		return err
	}
	if async < 0 {
		err = e.Ctx.Transfer(p, host, dev, n)
		return err
	}
	e.Stream(async).EnqueueCopy(host, dev, n)
	return nil
}

// DevicePtr is acc_deviceptr: host→device address translation via the
// present table. For integrated accelerators it is the identity.
func (e *Env) DevicePtr(host xmem.Addr) (xmem.Addr, error) {
	if e.Integrated() {
		return host, nil
	}
	return e.PT.DevicePtr(host)
}

// HostPtr is acc_hostptr: device→host translation.
func (e *Env) HostPtr(dev xmem.Addr) (xmem.Addr, error) { //impacc:allow-unused OpenACC acc_hostptr (§3)
	if e.Integrated() {
		return dev, nil
	}
	return e.PT.HostPtr(dev)
}

// IsPresent reports whether the host address is mapped on the device.
func (e *Env) IsPresent(host xmem.Addr) bool { //impacc:allow-unused OpenACC acc_is_present (§3)
	if e.Integrated() {
		return true
	}
	_, _, ok := e.PT.FindHost(host)
	return ok
}

// Kernels launches a compute region ("#pragma acc kernels/parallel"). The
// host pays the device's launch overhead; with async < 0 the call then
// blocks until the kernel completes (the construct's implicit barrier),
// otherwise it returns immediately with the kernel queued on queue async
// (paper §3.6).
func (e *Env) Kernels(p *sim.Proc, spec device.KernelSpec, async int) {
	lstart := p.Now()
	p.Sleep(e.Ctx.Dev.Spec.KernelLaunch)
	e.hostSpan("launch", spec.Name, lstart, p.Now())
	if async < 0 {
		s := e.Stream(SyncQueue)
		s.EnqueueKernel(spec)
		start := p.Now()
		s.Sync(p)
		e.WaitTime += sim.Dur(p.Now() - start)
		e.hostSpan("accwait", spec.Name, start, p.Now())
		return
	}
	e.Stream(async).EnqueueKernel(spec)
}

// hostSpan records a host-lane trace span when tracing is on. Launch
// overhead gets its own kind so profile breakdowns separate API cost from
// time genuinely blocked on the accelerator.
func (e *Env) hostSpan(kind, name string, start, end sim.Time) {
	if sink := e.Ctx.Sink; sink != nil && end > start {
		sink.Span(sink.NewID(), -1, kind, name, start, end, 0)
	}
}

// Wait implements "#pragma acc wait(q)": block until queue q drains.
func (e *Env) Wait(p *sim.Proc, q int) {
	s, ok := e.streams[q]
	if !ok {
		return
	}
	start := p.Now()
	s.Sync(p)
	e.WaitTime += sim.Dur(p.Now() - start)
}

// WaitAll implements "#pragma acc wait": block until every queue drains.
// Queues are waited in ascending number order to keep runs deterministic.
func (e *Env) WaitAll(p *sim.Proc) {
	for _, q := range e.queues() {
		e.Wait(p, q)
	}
}

// WaitAsync implements "#pragma acc wait(q) async(r)": queue r will not run
// operations enqueued after this call until everything currently on queue q
// has completed — a device-side dependency, no host blocking.
func (e *Env) WaitAsync(q, r int) {
	src, ok := e.streams[q]
	if !ok || q == r {
		return
	}
	e.Stream(r).EnqueueWaitStream(src)
}
