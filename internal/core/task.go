package core

import (
	"fmt"
	"sort"
	"strconv"

	"impacc/internal/acc"
	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// Task is one MPI task: a lightweight user-level thread bound to a distinct
// accelerator (paper §2.3). Errors follow MPI's default
// MPI_ERRORS_ARE_FATAL handler: misuse panics with a *RunError, which the
// runtime recovers and surfaces from Run.
type Task struct {
	rank  int
	rt    *Runtime
	node  *nodeState
	pl    Placement
	local int // index among the node's tasks

	proc  *sim.Proc
	space *xmem.Space
	ctx   *device.Context
	env   *acc.Env
	rng   *sim.RNG

	commTime sim.Dur
	hostTime sim.Dur
	// phase is the task's last observed activity ("compute", "accwait",
	// "mpi:<op>"), written only by the task's own process and read by the
	// progress observer at beat barriers (which order the accesses).
	phase string
	// mpiLat caches the task's per-op MPI latency histograms and phase
	// strings, in first-use order.
	mpiLat []mpiOpStats
	// cmdWhy labels the completion event of every message command the task
	// posts ("mpi-<rank>"), built once so posting one builds no string.
	cmdWhy string
	endAt  sim.Time
	err    error
	// scratch is a tiny runtime-internal buffer used as the payload of
	// synchronization-only messages (barriers).
	scratch xmem.Addr
	// uqPending tracks MPI operations in flight on each unified activity
	// queue (§3.6); later queue operations drain them first.
	uqPending map[int]uqChain
	// reqFree is a stack of freed command records, reused by the task's
	// next point-to-point, collective or queued command. uqSlabs holds
	// every unified-queue op the task has made, by slot; uqFree and
	// drainFree list the ops and drains its queues have finished. Only the
	// task's own process and its queues' processes, all on the task's
	// shard, touch them.
	reqFree   []*request
	uqSlabs   []*[uqSlab]uqOp
	uqFree    *uqOp
	drainFree *uqDrain
	// collKids and collPend are a collective's scratch: its tree children
	// and its pending sends. Collectives run on the task's own process
	// and wait for their sends before returning, so each call's use ends
	// before the next one's begins.
	collKids []int
	collPend []*request
	// world is the MPI_COMM_WORLD view of this task. Embedding it makes
	// every Comm method a Task method over MPI_COMM_WORLD; Task declares
	// only the entry points whose behaviour differs (see p2p.go).
	*world
}

// world names the embedded communicator so the field stays unexported.
type world = Comm

// dur converts an elapsed virtual-time difference to a duration.
func dur(x sim.Time) sim.Dur { return sim.Dur(x) }

// eng returns the engine hosting this task's node — the only engine a task
// may create events on or read the clock from under sharded execution.
func (t *Task) eng() *sim.Engine { return t.rt.Fab.Engine(t.pl.Node) }

// taskSink adapts the tracer to device.TraceSink, stamping device spans
// with the owning task's rank and node.
type taskSink struct {
	tr   *Tracer
	rank int
	node int
}

// NewID opens the span that Span records under the ID.
func (s *taskSink) NewID() uint64 {
	s.tr.open(s.node)
	return s.tr.laneID(s.node)
}

func (s *taskSink) Span(id uint64, stream int, kind, name string, start, end sim.Time, bytes int64) {
	s.tr.close(Span{ID: id, Rank: s.rank, Node: s.node, Stream: stream,
		Kind: kind, Name: name, Start: start, End: end, Bytes: bytes, Peer: -1})
}

func (s *taskSink) Edge(kind string, from, to uint64, at sim.Time) {
	s.tr.depEdge(s.node, kind, from, to, at)
}

// newTask wires one task's space, endpoint, device context, and ACC env.
func (rt *Runtime) newTask(rank int, pl Placement, ns *nodeState) *Task {
	t := &Task{rank: rank, rt: rt, node: ns, pl: pl}
	sys := rt.Cfg.System
	if rt.Cfg.Mode == IMPACC {
		t.space = ns.space
	} else {
		t.space = xmem.NewSpace(fmt.Sprintf("proc%d", rank), len(sys.Nodes[pl.Node].Devices))
	}
	// The mapping is node-major, so each node's world ranks are contiguous
	// and the task's index among them is its offset from the lowest.
	wl := rt.worldLayout
	t.local = rank - wl.group[wl.slot[rank]][0]
	// Application host arrays are pageable under both runtimes; only the
	// message hub's internal staging buffers are pre-pinned (paper §3.7).
	// IMPACC's data-transfer edge comes from NUMA pinning, not from
	// pinning the user's heap.
	ctx := ns.devrt.NewContext(pl.Device, t.space, rt.pinSocket(pl), rt.Cfg.Backed, false)
	if rt.Cfg.Trace != nil {
		ctx.Sink = &taskSink{tr: rt.Cfg.Trace, rank: rank, node: pl.Node}
	}
	t.ctx = ctx
	t.env = acc.NewEnv(ctx)
	t.rng = sim.NewRNG(rt.Cfg.Seed ^ (uint64(rank)*0x9E3779B97F4A7C15 + 0x1234567))
	t.scratch, _ = t.space.AllocHost(64, false)
	t.uqPending = map[int]uqChain{}
	t.cmdWhy = "mpi-" + strconv.Itoa(rank)
	t.world = rt.newWorld(t)
	return t
}

// fail aborts the task with MPI_ERRORS_ARE_FATAL semantics.
func (t *Task) fail(err error) {
	panic(&RunError{Rank: t.rank, Err: err})
}

func (t *Task) failf(format string, args ...interface{}) {
	t.fail(fmt.Errorf(format, args...))
}

// Fail aborts the task with err (MPI_ERRORS_ARE_FATAL semantics); the run
// returns the error. Intended for applications built on the runtime.
func (t *Task) Fail(err error) { t.fail(err) }

// Failf is Fail with formatting.
func (t *Task) Failf(format string, args ...interface{}) { t.failf(format, args...) }

// CopyLocal copies bytes within the task's own memory, charged as a normal
// transfer on the shared links.
func (t *Task) CopyLocal(dst, src xmem.Addr, n int64) { t.localCopy(dst, src, n) }

// NodeIdx returns the index of the node hosting this task.
func (t *Task) NodeIdx() int { return t.pl.Node }

// DeviceIndex returns the attached accelerator's index within its node.
func (t *Task) DeviceIndex() int { return t.pl.Device }

// LocalIndex returns the task's index among its node's tasks.
func (t *Task) LocalIndex() int { return t.local } //impacc:allow-unused reproduces the paper's node-aware task API (§3.3)

// NumNodes returns the number of nodes hosting tasks.
func (t *Task) NumNodes() int { return len(t.rt.worldLayout.first) } //impacc:allow-unused reproduces the paper's node-aware task API (§3.3)

// DeviceType is acc_get_device_type: the class of the attached accelerator,
// the hook for manual load balancing across heterogeneous devices (§3.2).
func (t *Task) DeviceType() topo.DeviceClass { return t.env.DeviceType() }

// DeviceSpec exposes the attached accelerator's description.
func (t *Task) DeviceSpec() *topo.DeviceSpec { return t.ctx.Dev.Spec } //impacc:allow-unused reproduces the paper's OpenACC API (§3)

// SetDeviceNum is acc_set_device_num. The task-device mapping is fixed by
// the runtime for the application's lifetime, so the call is ignored
// (paper §3.2: "the runtime ignores any additional acc_set_device_num()
// calls by the host program"). It reports whether the request matched the
// existing assignment.
func (t *Task) SetDeviceNum(n int) bool { return n == t.pl.Device } //impacc:allow-unused OpenACC acc_set_device_num, which the paper's runtime ignores (§3.2)

// ACC returns the task's OpenACC environment.
func (t *Task) ACC() *acc.Env { return t.env } //impacc:allow-unused reproduces the paper's OpenACC API (§3)

// RNG returns the task's deterministic random stream.
func (t *Task) RNG() *sim.RNG { return t.rng }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.proc.Now() }

// sameNode reports whether rank runs on this task's node.
func (t *Task) sameNode(rank int) bool {
	return t.rt.placements[rank].Node == t.pl.Node
}

func (t *Task) checkRank(r int) {
	if r < 0 || r >= len(t.rt.tasks) {
		t.failf("rank %d out of range [0,%d)", r, len(t.rt.tasks))
	}
}

// ---- Memory management -------------------------------------------------

// Malloc allocates n bytes of host heap memory. Under IMPACC the
// allocation is hooked into the node heap table, making it a node heap
// aliasing candidate (§3.8).
func (t *Task) Malloc(n int64) xmem.Addr {
	if c := t.rt.heapCap; c != nil {
		if err := c.charge(t.eng(), t.rank, n); err != nil {
			t.fail(err)
		}
	}
	addr, err := t.space.AllocHost(n, t.rt.Cfg.Backed)
	if err != nil {
		t.fail(err)
	}
	if t.rt.Cfg.Mode == IMPACC {
		t.node.heap.Register(addr, n, t.rank)
	}
	return addr
}

// Free releases a Malloc'd allocation, honoring aliasing reference counts:
// freeing an aliased receive buffer releases one reference on the shared
// producer heap; the storage dies with the last reference (§3.8).
func (t *Task) Free(addr xmem.Addr) { //impacc:allow-unused reproduces the paper's aliasing-aware free (§3.8)
	if t.rt.Cfg.Mode != IMPACC {
		if err := t.space.Free(addr); err != nil {
			t.fail(err)
		}
		return
	}
	if seg, ok := t.space.SegmentAt(addr); ok && seg.AliasTo != xmem.Nil {
		target := seg.AliasTo
		if err := t.space.Free(addr); err != nil {
			t.fail(err)
		}
		ent, last, err := t.node.heap.Release(target)
		if err != nil {
			t.fail(err)
		}
		if last {
			if err := t.space.Free(ent.Base); err != nil {
				t.fail(err)
			}
		}
		return
	}
	ent, last, err := t.node.heap.Release(addr)
	if err != nil {
		// Not heap-tracked (e.g. scratch owned elsewhere): plain free.
		if ferr := t.space.Free(addr); ferr != nil {
			t.fail(ferr)
		}
		return
	}
	if last {
		if err := t.space.Free(ent.Base); err != nil {
			t.fail(err)
		}
	}
}

// Floats returns a []float64 view of n elements at addr (nil when the run
// is unbacked).
func (t *Task) Floats(addr xmem.Addr, n int) []float64 {
	v, err := t.space.Float64s(addr, n)
	if err != nil {
		t.fail(err)
	}
	return v
}

// Bytes returns the raw storage at addr (nil when unbacked).
func (t *Task) Bytes(addr xmem.Addr, n int64) []byte {
	b, err := t.space.Bytes(addr, n)
	if err != nil {
		t.fail(err)
	}
	return b
}

// ---- Host compute ------------------------------------------------------

// Compute charges host CPU time for flops double-precision operations on
// the task's pinned socket, with deterministic jitter when configured.
func (t *Task) Compute(flops float64) {
	node := &t.rt.Cfg.System.Nodes[t.pl.Node]
	sock := t.ctx.Socket
	if sock < 0 {
		sock = 0
	}
	rate := node.Sockets[sock].GFlopsDP * 1e9
	t.Busy(sim.DurFromSeconds(flops / rate))
}

// Busy charges d of host CPU time (plus jitter). Under a chaos plan a
// straggling node stretches its compute by the plan's factor; the extra
// time is recorded as its own "straggle" span so profiles attribute it.
func (t *Task) Busy(d sim.Dur) {
	if t.rt.Cfg.JitterPct > 0 {
		f := 1 + t.rt.Cfg.JitterPct/100*(2*t.rng.Float64()-1)
		d = sim.Dur(float64(d) * f)
	}
	t.phase = "compute"
	start := t.spanStart()
	t.proc.Sleep(d)
	t.hostTime += d
	t.span("compute", "host", start)
	if ft := t.rt.faults; ft != nil {
		if sf := ft.StraggleFactor(t.pl.Node, t.proc.Now()); sf > 1 {
			extra := sim.Dur(float64(d) * (sf - 1))
			s2 := t.spanStart()
			t.proc.Sleep(extra)
			t.hostTime += extra
			t.span("straggle", "host", s2)
		}
	}
}

// ---- OpenACC facade ----------------------------------------------------

// DataEnter is "#pragma acc enter data" (copyin/create/present) for one
// host range; it returns the device address.
func (t *Task) DataEnter(host xmem.Addr, n int64, mode acc.EnterMode) xmem.Addr {
	d, err := t.env.DataEnter(t.proc, host, n, mode)
	if err != nil {
		t.fail(err)
	}
	return d
}

// DataExit is "#pragma acc exit data" (copyout/delete).
func (t *Task) DataExit(host xmem.Addr, mode acc.ExitMode) {
	if err := t.env.DataExit(t.proc, host, mode); err != nil {
		t.fail(err)
	}
}

// UpdateDevice is "#pragma acc update device(...)"; async < 0 blocks.
func (t *Task) UpdateDevice(host xmem.Addr, n int64, async int) {
	if async >= 0 {
		t.uqBarrier(async)
	}
	if err := t.env.UpdateDevice(t.proc, host, n, async); err != nil {
		t.fail(err)
	}
}

// UpdateHost is "#pragma acc update self(...)"; async < 0 blocks.
func (t *Task) UpdateHost(host xmem.Addr, n int64, async int) {
	if async >= 0 {
		t.uqBarrier(async)
	}
	if err := t.env.UpdateHost(t.proc, host, n, async); err != nil {
		t.fail(err)
	}
}

// Kernels launches a compute region; async < 0 blocks until completion.
// On a unified activity queue, the kernel starts only after every MPI
// operation previously placed on that queue has completed (§3.6).
func (t *Task) Kernels(spec device.KernelSpec, async int) {
	if async >= 0 {
		t.uqBarrier(async)
	}
	t.env.Kernels(t.proc, spec, async)
}

// ACCWait is "#pragma acc wait(q)": drains queued device work and any MPI
// operations in flight on queue q.
func (t *Task) ACCWait(q int) {
	t.phase = "accwait"
	start := t.spanStart()
	t.uqBarrier(q)
	t.env.Wait(t.proc, q)
	t.span("accwait", "wait", start)
}

// ACCWaitAll is "#pragma acc wait" over every queue.
func (t *Task) ACCWaitAll() { //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	var qs []int
	for q, c := range t.uqPending {
		if c.head != nil {
			qs = append(qs, q)
		}
	}
	sort.Ints(qs)
	t.phase = "accwait"
	start := t.spanStart()
	for _, q := range qs {
		t.uqBarrier(q)
	}
	t.env.WaitAll(t.proc)
	t.span("accwait", "waitall", start)
}

// DevicePtr is acc_deviceptr.
func (t *Task) DevicePtr(host xmem.Addr) xmem.Addr {
	d, err := t.env.DevicePtr(host)
	if err != nil {
		t.fail(err)
	}
	return d
}

// DataRange describes one allocation's role in a structured data region.
type DataRange struct {
	Addr  xmem.Addr //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	Bytes int64     //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	// Enter selects the entry action (Copyin/Create/Present).
	Enter acc.EnterMode //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	// Exit selects the region-end action (Copyout/Delete).
	Exit acc.ExitMode //impacc:allow-unused reproduces the paper's OpenACC API (§3)
}

// DataRegion is the structured "#pragma acc data { ... }" construct: the
// ranges enter the device data environment, body runs, and the region-end
// actions apply in reverse order — even if body panics.
func (t *Task) DataRegion(ranges []DataRange, body func()) { //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	entered := 0
	defer func() {
		for i := entered - 1; i >= 0; i-- {
			t.DataExit(ranges[i].Addr, ranges[i].Exit)
		}
	}()
	for _, r := range ranges {
		t.DataEnter(r.Addr, r.Bytes, r.Enter)
		entered++
	}
	body()
}

// ACCWaitAsync is "#pragma acc wait(q) async(r)": queue r waits for queue q
// on the device, without blocking the host. Outstanding MPI operations on
// queue q are drained into its dependency first.
func (t *Task) ACCWaitAsync(q, r int) { //impacc:allow-unused reproduces the paper's OpenACC API (§3)
	t.uqBarrier(q)
	t.env.WaitAsync(q, r)
}
