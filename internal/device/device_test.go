package device

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// psgRig builds an engine, fabric, runtime, space, and context pinned to
// the near socket of device dev on a PSG node.
func psgRig(dev int) (*sim.Engine, *Runtime, *Context) {
	eng := sim.NewEngine()
	sys := topo.PSG()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := NewRuntime(eng, fab, 0)
	space := xmem.NewSpace("node0", len(sys.Nodes[0].Devices))
	ctx := rt.NewContext(dev, space, sys.Nodes[0].Devices[dev].Socket, true, true)
	return eng, rt, ctx
}

func TestAPIFor(t *testing.T) {
	if APIFor(topo.NVIDIAGPU) != CUDA {
		t.Fatal("NVIDIA must use CUDA")
	}
	for _, c := range []topo.DeviceClass{topo.XeonPhi, topo.AMDGPU, topo.FPGA, topo.CPUAccel} {
		if APIFor(c) != OpenCL {
			t.Fatalf("%v must use OpenCL", c)
		}
	}
	if CUDA.String() != "cuda" || OpenCL.String() != "opencl" {
		t.Fatal("API strings wrong")
	}
}

func TestMemAllocEnforcesDeviceCapacity(t *testing.T) {
	// Unbacked context: capacity accounting without touching real RAM.
	eng := sim.NewEngine()
	sys := topo.PSG()
	rt := NewRuntime(eng, topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys), 0)
	ctx := rt.NewContext(0, xmem.NewSpace("n", 8), 0, false, true)
	a, err := ctx.MemAlloc(8 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if a == xmem.Nil {
		t.Fatal("nil address")
	}
	// GK210 has 12 GB; another 8 GB must fail.
	if _, err := ctx.MemAlloc(8 << 30); err == nil {
		t.Fatal("over-capacity allocation must fail")
	}
	if err := ctx.MemFree(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.MemAlloc(8 << 30); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestIntegratedDeviceAllocatesHost(t *testing.T) {
	eng := sim.NewEngine()
	sys := topo.HeteroDemo()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := NewRuntime(eng, fab, 2) // CPU-only node
	space := xmem.NewSpace("n2", 2)
	ctx := rt.NewContext(0, space, 0, true, true)
	a, err := ctx.MemAlloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := space.Lookup(a)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Kind() != xmem.HostMem {
		t.Fatal("integrated device allocation must land in host memory")
	}
}

func TestTransferDirectionsAndData(t *testing.T) {
	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(1024, true)
	host2, _ := ctx.Space.AllocHost(1024, true)
	dev, _ := ctx.MemAlloc(1024)
	hb, _ := ctx.Space.Bytes(host, 1024)
	for i := range hb {
		hb[i] = byte(i)
	}
	eng.Spawn("t", func(p *sim.Proc) {
		for _, c := range []struct {
			dst, src xmem.Addr
			count    *int64 // the Stats counter the copy's direction moves
		}{
			{dev, host, &ctx.Stats.HtoDCount},
			{host2, dev, &ctx.Stats.DtoHCount},
			{host2, host, &ctx.Stats.HtoHCount},
		} {
			before := *c.count
			if err := ctx.Transfer(p, c.dst, c.src, 1024); err != nil {
				t.Error(err)
			}
			if *c.count != before+1 {
				t.Errorf("copy %#x <- %#x: its direction's count did not move: %+v", c.dst, c.src, ctx.Stats)
			}
		}
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	b2, _ := ctx.Space.Bytes(host2, 1024)
	for i := range b2 {
		if b2[i] != byte(i) {
			t.Fatalf("round-trip data mismatch at %d", i)
		}
	}
	if ctx.Stats.HtoDCount != 1 || ctx.Stats.DtoHCount != 1 || ctx.Stats.HtoHCount != 1 {
		t.Fatalf("stats = %+v", ctx.Stats)
	}
	if (ctx.Stats.HtoDCount + ctx.Stats.DtoHCount + ctx.Stats.DtoDCount + ctx.Stats.HtoHCount) != 3 {
		t.Fatal("copy count wrong")
	}
}

func TestTransferErrors(t *testing.T) {
	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(64, true)
	eng.Spawn("t", func(p *sim.Proc) {
		if err := ctx.Transfer(p, host, 0xdead, 8); err == nil {
			t.Error("unmapped src must fail")
		}
		if err := ctx.Transfer(p, 0xdead, host, 8); err == nil {
			t.Error("unmapped dst must fail")
		}
		if err := ctx.Transfer(p, host, host, -1); err == nil {
			t.Error("negative size must fail")
		}
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDtoDPeerVsStaged(t *testing.T) {
	// Devices 0,1 share a root complex (P2P); devices 0,4 do not (staged).
	eng := sim.NewEngine()
	sys := topo.PSG()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := NewRuntime(eng, fab, 0)
	space := xmem.NewSpace("n", 8)
	ctx0 := rt.NewContext(0, space, 0, true, true)
	d0, _ := ctx0.MemAlloc(64 << 20)
	ctx1 := rt.NewContext(1, space, 0, true, true)
	d1, _ := ctx1.MemAlloc(64 << 20)
	ctx4 := rt.NewContext(4, space, 1, true, true)
	d4, _ := ctx4.MemAlloc(64 << 20)

	var peerTime, stagedTime sim.Dur
	eng.Spawn("peer", func(p *sim.Proc) {
		start := p.Now()
		if err := ctx0.Transfer(p, d1, d0, 64<<20); err != nil {
			t.Error(err)
		}
		peerTime = sim.Dur(p.Now() - start)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	eng2 := sim.NewEngine()
	fab2 := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng2}, len(sys.Nodes)), sys)
	rt2 := NewRuntime(eng2, fab2, 0)
	space2 := xmem.NewSpace("n2", 8)
	ctxA := rt2.NewContext(0, space2, 0, true, true)
	dA, _ := ctxA.MemAlloc(64 << 20)
	ctxB := rt2.NewContext(4, space2, 1, true, true)
	dB, _ := ctxB.MemAlloc(64 << 20)
	eng2.Spawn("staged", func(p *sim.Proc) {
		start := p.Now()
		if err := ctxA.Transfer(p, dB, dA, 64<<20); err != nil {
			t.Error(err)
		}
		stagedTime = sim.Dur(p.Now() - start)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng2}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if peerTime >= stagedTime {
		t.Fatalf("peer %v should beat staged %v", peerTime, stagedTime)
	}
	_ = d4
}

func TestSameDeviceDtoD(t *testing.T) {
	eng, _, ctx := psgRig(0)
	a, _ := ctx.MemAlloc(1 << 20)
	b, _ := ctx.MemAlloc(1 << 20)
	eng.Spawn("t", func(p *sim.Proc) {
		if err := ctx.Transfer(p, b, a, 1<<20); err != nil {
			t.Error(err)
		}
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.DtoDCount != 1 || ctx.Stats.HtoHCount+ctx.Stats.HtoDCount+ctx.Stats.DtoHCount != 0 {
		t.Fatal("stats missing DtoD")
	}
}

func TestKernelDuration(t *testing.T) {
	spec := &topo.PSG().Nodes[0].Devices[0] // 1200 GF * 0.78, 240 GB/s * 0.55
	// Compute-bound: 1e12 flops / (1200e9*0.78) ~ 1.068s.
	d := Duration(spec, KernelSpec{FLOPs: 1e12, Kind: KindCompute})
	if d < sim.Second || d > sim.Second+sim.Second/5 {
		t.Fatalf("compute kernel = %v", d)
	}
	// Memory-bound: 132e9 bytes at 132 GB/s effective = 1s.
	m := Duration(spec, KernelSpec{Bytes: 132e9, Kind: KindMemory})
	if m < sim.Second-sim.Second/100 || m > sim.Second+sim.Second/100 {
		t.Fatalf("memory kernel = %v", m)
	}
	// Mixed takes the max.
	mx := Duration(spec, KernelSpec{FLOPs: 1e12, Bytes: 132e9, Kind: KindMixed})
	if mx != d {
		t.Fatalf("mixed = %v, want %v", mx, d)
	}
}

// markOp is a test stream operation: it runs fn, labelled why. fn may park
// once, as its last step: resumed, the op has finished.
type markOp struct {
	Entry
	why string
	fn  func(p *sim.Proc) (parked bool)
	ran bool
}

func (m *markOp) Why(*Stream) string { return m.why }

func (m *markOp) Run(_ *Stream, p *sim.Proc) bool {
	if m.ran {
		return false
	}
	m.ran = true
	return m.fn(p)
}

func TestStreamInOrderExecution(t *testing.T) {
	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(1<<20, true)
	dev, _ := ctx.MemAlloc(1 << 20)
	st := ctx.NewStream(1)
	var order []string
	st.EnqueueCopy(dev, host, 1<<20)
	st.Enqueue(&markOp{why: "op:mark1", fn: func(p *sim.Proc) bool { order = append(order, "a"); return false }})
	st.EnqueueKernel(KernelSpec{Name: "k", FLOPs: 1e9, Kind: KindCompute,
		Body: func() { order = append(order, "kernel") }})
	last := &markOp{why: "op:mark2", fn: func(p *sim.Proc) bool { order = append(order, "b"); return false }}
	st.Enqueue(last)
	if st.tail != &last.Entry || st.enqueued != 4 || st.finished != 0 {
		t.Fatal("queued work completed before the engine ran")
	}
	eng.Spawn("waiter", func(p *sim.Proc) {
		st.Sync(p)
		order = append(order, "synced")
	})
	st.Close()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if st.finished != 4 {
		t.Fatal("a stream op never completed")
	}
	want := []string{"a", "kernel", "b", "synced"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if ctx.Stats.KernelCount != 1 || ctx.Stats.KernelTime == 0 {
		t.Fatalf("kernel stats = %+v", ctx.Stats)
	}
}

func TestStreamsRunIndependently(t *testing.T) {
	// Two streams with one kernel each: kernels serialize on the device
	// compute resource, but copies on stream 2 overlap kernel on stream 1.
	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(1<<26, true)
	dev, _ := ctx.MemAlloc(1 << 26)
	s1 := ctx.NewStream(1)
	s2 := ctx.NewStream(2)
	var kEnd, cEnd sim.Time
	s1.EnqueueKernel(KernelSpec{Name: "long", FLOPs: 1e11, Kind: KindCompute})
	s2.EnqueueCopy(dev, host, 1<<26)
	eng.Spawn("obs", func(p *sim.Proc) {
		s2.Sync(p)
		cEnd = p.Now()
		s1.Sync(p)
		kEnd = p.Now()
	})
	s1.Close()
	s2.Close()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	// Kernel ~107ms; copy ~5.7ms. The copy must finish long before the
	// kernel, proving the queues are independent.
	if cEnd >= kEnd {
		t.Fatalf("copy end %v, kernel end %v: no overlap", cEnd, kEnd)
	}
}

func TestKernelsSerializeOnDevice(t *testing.T) {
	eng, _, ctx := psgRig(0)
	s1 := ctx.NewStream(1)
	s2 := ctx.NewStream(2)
	s1.EnqueueKernel(KernelSpec{FLOPs: 1e11, Kind: KindCompute})
	s2.EnqueueKernel(KernelSpec{FLOPs: 1e11, Kind: KindCompute})
	var t1, t2 sim.Time
	eng.Spawn("obs", func(p *sim.Proc) {
		s1.Sync(p)
		t1 = p.Now()
		s2.Sync(p)
		t2 = p.Now()
	})
	s1.Close()
	s2.Close()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	one := Duration(ctx.Dev.Spec, KernelSpec{FLOPs: 1e11, Kind: KindCompute})
	if t2-t1 < sim.Time(one)*9/10 {
		t.Fatalf("kernels overlapped on one device: %v then %v (kernel=%v)", t1, t2, one)
	}
}

func TestStreamCloseIdempotent(t *testing.T) {
	eng, _, ctx := psgRig(0)
	st := ctx.NewStream(1)
	st.Close()
	st.Close()
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{HtoDCount: 1, HtoDBytes: 10, KernelCount: 2, KernelTime: 5}
	b := Stats{HtoDCount: 2, DtoHCount: 3, HtoHTime: 7}
	a.Add(&b)
	if a.HtoDCount != 3 || a.DtoHCount != 3 || a.KernelCount != 2 || a.HtoHTime != 7 {
		t.Fatalf("sum = %+v", a)
	}
}

func TestDirectionString(t *testing.T) {
	if HtoH.String() != "HtoH" || HtoD.String() != "HtoD" ||
		DtoH.String() != "DtoH" || DtoD.String() != "DtoD" {
		t.Fatal("direction strings wrong")
	}
}

func TestNewHandleMonotonic(t *testing.T) {
	_, rt, _ := psgRig(0)
	d := rt.Devices[0]
	h1, h2 := d.NewHandle(), d.NewHandle()
	if h2 <= h1 || h1 == 0 {
		t.Fatal("handles must be distinct and nonzero")
	}
}

func TestUnpinnedContextAlternatesSockets(t *testing.T) {
	// An unpinned context (Socket = -1) models OS placement by alternating
	// near and far sockets, so repeated transfers average the NUMA
	// penalty rather than always hitting one extreme.
	eng := sim.NewEngine()
	sys := topo.PSG()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := NewRuntime(eng, fab, 0)
	ctx := rt.NewContext(0, xmem.NewSpace("n", 8), -1, false, false)
	dev, _ := ctx.MemAlloc(64 << 20)
	host, _ := ctx.Space.AllocHost(64<<20, false)
	var durs []sim.Dur
	eng.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			t0 := p.Now()
			ctx.Transfer(p, dev, host, 64<<20)
			durs = append(durs, sim.Dur(p.Now()-t0))
		}
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	// Alternating: two distinct values, interleaved.
	if durs[0] == durs[1] {
		t.Fatalf("unpinned transfers did not alternate: %v", durs)
	}
	if durs[0] != durs[2] || durs[1] != durs[3] {
		t.Fatalf("alternation not periodic: %v", durs)
	}
}

func TestSingleSocketUnpinnedIsNear(t *testing.T) {
	eng := sim.NewEngine()
	sys := topo.Titan(1)
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := NewRuntime(eng, fab, 0)
	ctx := rt.NewContext(0, xmem.NewSpace("n", 1), -1, false, true)
	if got := ctx.effSocket(); got != 0 {
		t.Fatalf("single-socket unpinned effSocket = %d", got)
	}
}

func TestKernelGeometryCarried(t *testing.T) {
	spec := KernelSpec{Gangs: 128, Workers: 8, Vector: 32, FLOPs: 1, Kind: KindCompute}
	if spec.Gangs != 128 || spec.Workers != 8 || spec.Vector != 32 {
		t.Fatal("geometry fields lost")
	}
}

// flakyCopies fails the first n CopyFail probes, then heals.
type flakyCopies struct {
	fails   int
	retries int
}

func (f *flakyCopies) CopyFail(node int) bool {
	if f.fails > 0 {
		f.fails--
		return true
	}
	return false
}
func (f *flakyCopies) CopyRetries() int { return f.retries }

// TestTransferRetriesTransientCopyFault: a transient device-copy fault is
// retried (paying the lane again each attempt) and the payload still lands;
// exhausting the retry budget surfaces an error instead of corrupt data.
func TestTransferRetriesTransientCopyFault(t *testing.T) {
	eng, rt, ctx := psgRig(0)
	rt.Faults = &flakyCopies{fails: 2, retries: 3}
	host, _ := ctx.Space.AllocHost(4096, true)
	dev, _ := ctx.MemAlloc(4096)
	hb, _ := ctx.Space.Bytes(host, 4096)
	for i := range hb {
		hb[i] = byte(i * 5)
	}
	var healthy, faulty sim.Dur
	eng.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		if err := ctx.Transfer(p, dev, host, 4096); err != nil {
			t.Error(err)
		}
		faulty = sim.Dur(p.Now() - start)
		start = p.Now()
		if err := ctx.Transfer(p, dev, host, 4096); err != nil { // healed
			t.Error(err)
		}
		healthy = sim.Dur(p.Now() - start)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if faulty <= healthy {
		t.Fatalf("faulty transfer (%v) not slower than healthy (%v)", faulty, healthy)
	}
	db, _ := ctx.Space.Bytes(dev, 4096)
	for i := range db {
		if db[i] != byte(i*5) {
			t.Fatalf("payload mismatch at %d after copy retries", i)
		}
	}

	// Exhaust the budget: every probe fails.
	rt.Faults = &flakyCopies{fails: 1 << 30, retries: 2}
	eng2, rt2, ctx2 := psgRig(0)
	rt2.Faults = rt.Faults
	h2, _ := ctx2.Space.AllocHost(64, true)
	d2, _ := ctx2.MemAlloc(64)
	var err2 error
	eng2.Spawn("t", func(p *sim.Proc) {
		err2 = ctx2.Transfer(p, d2, h2, 64)
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng2}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if err2 == nil {
		t.Fatal("transfer succeeded with a permanently failing copy engine")
	}
}

// TestStreamOpDeadlockLabel pins the deadlock diagnostics of a stream op:
// a process syncing on a stuck kernel is blocked on "event:op:kernel:<name>".
func TestStreamOpDeadlockLabel(t *testing.T) {
	eng, _, ctx := psgRig(0)
	stuck := ctx.NewStream(0)
	never := eng.NewEvent("never")
	stuck.Enqueue(&markOp{why: "op:stuck", fn: func(p *sim.Proc) bool { return never.Wait(p) }})
	st := ctx.NewStream(1)
	st.EnqueueWaitStream(stuck)
	st.EnqueueKernel(KernelSpec{Name: "stencil", FLOPs: 1e6, Kind: KindCompute})
	eng.Spawn("host", func(p *sim.Proc) { st.Sync(p) })
	err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	want := []string{"host (on event:op:kernel:stencil)", "psg/dev0/q1 (on event:op:stuck)", "psg/dev0/q0 (on event:never)"}
	for _, w := range want {
		found := false
		for _, b := range de.Blocked {
			found = found || strings.HasSuffix(b, w)
		}
		if !found {
			t.Errorf("blocked = %v, want an entry ending %q", de.Blocked, w)
		}
	}
}

// mallocs counts the heap objects n calls of f allocate.
func mallocs(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStreamOpAllocs pins the host cost of a queued device operation: a
// copy or a kernel allocates at most its own record (no closure, queue slot
// or label), each record stays in its size class, a finished record is
// reused by its stream's next enqueue of its kind, and syncing a busy
// stream reuses the stream's completion event after the first Sync. So
// once a stream has run as much work as it is given, enqueueing and
// syncing allocate nothing.
func TestStreamOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"copyOp", unsafe.Sizeof(copyOp{}), 64},
		{"kernelOp", unsafe.Sizeof(kernelOp{}), 80},
		{"waitOp", unsafe.Sizeof(waitOp{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("sizeof(%s) = %d bytes, want <= %d", c.name, c.size, c.max)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	eng, _, ctx := psgRig(0)
	host, _ := ctx.Space.AllocHost(64, true)
	dev, _ := ctx.MemAlloc(64)
	k := KernelSpec{Name: "k", FLOPs: 1e6, Kind: KindCompute}
	st, other := ctx.NewStream(1), ctx.NewStream(2)
	const n = 1000
	// Before anything has run, each operation makes its record.
	if got := mallocs(n, func() { st.EnqueueCopy(dev, host, 64) }); got != n {
		t.Errorf("%d EnqueueCopy calls allocated %d objects, want %d", n, got, n)
	}
	if got := mallocs(n, func() { st.EnqueueKernel(k) }); got != n {
		t.Errorf("%d EnqueueKernel calls allocated %d objects, want %d", n, got, n)
	}

	var copies, kernels, synced, waits uint64
	eng.Spawn("host", func(p *sim.Proc) {
		// The first burst has run: the same burst again reuses its records.
		st.Sync(p)
		copies = mallocs(n, func() { st.EnqueueCopy(dev, host, 64) })
		kernels = mallocs(n, func() { st.EnqueueKernel(k) })
		st.Sync(p)
		// Each round enqueues a kernel and syncs while it runs.
		synced = mallocs(n, func() {
			st.EnqueueKernel(k)
			st.Sync(p)
		})
		// Each round makes the other stream wait on a running kernel.
		round := func() {
			st.EnqueueKernel(k)
			other.EnqueueWaitStream(st)
			other.Sync(p)
		}
		round() // the other stream's first wait record and event
		waits = mallocs(n, round)
		st.Close()
		other.Close()
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  uint64
	}{
		{"EnqueueCopy calls", copies},
		{"EnqueueKernel calls", kernels},
		{"kernel+Sync rounds", synced},
		{"kernel+wait+Sync rounds", waits},
	} {
		if c.got != 0 {
			t.Errorf("%d steady-state %s allocated %d objects, want 0", n, c.what, c.got)
		}
	}
}

// TestStreamWaitSurvivesRecycledTarget: stream b waits on stream a's tail,
// a kernel that finishes, goes back on a's free list and is reused by a's
// next kernel before b's wait runs. The wait is on the finished kernel, so
// b must not wait for the new one.
func TestStreamWaitSurvivesRecycledTarget(t *testing.T) {
	eng, _, ctx := psgRig(0)
	a, b := ctx.NewStream(1), ctx.NewStream(2)
	a.EnqueueKernel(KernelSpec{Name: "short", FLOPs: 1e3, Kind: KindCompute})
	target := a.tail
	b.Enqueue(&markOp{why: "op:gate", fn: func(p *sim.Proc) bool { return p.Sleep(sim.Millisecond) }})
	b.EnqueueWaitStream(a)
	var bEnd, aEnd sim.Time
	reused := false
	eng.Spawn("host", func(p *sim.Proc) {
		a.Sync(p) // the short kernel finishes while b is still gated
		a.EnqueueKernel(KernelSpec{Name: "long", FLOPs: 1e11, Kind: KindCompute})
		reused = a.tail == target
		b.Sync(p)
		bEnd = p.Now()
		a.Sync(p)
		aEnd = p.Now()
		a.Close()
		b.Close()
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("the long kernel did not reuse the short kernel's record")
	}
	if bEnd >= aEnd || bEnd > sim.Time(2*sim.Millisecond) {
		t.Fatalf("b synced at %v, a's long kernel ended at %v: b waited on the reused record", bEnd, aEnd)
	}
}
