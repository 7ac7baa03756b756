package acc

import (
	"errors"
	"math"
	"slices"
	"testing"

	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

type rig struct {
	eng *sim.Engine
	rt  *device.Runtime
	env *Env
	sp  *xmem.Space
}

func newRig(t *testing.T, sys *topo.System, node, dev int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := device.NewRuntime(eng, fab, node)
	sp := xmem.NewSpace("n", len(sys.Nodes[node].Devices))
	ctx := rt.NewContext(dev, sp, sys.Nodes[node].Devices[dev].Socket, true, true)
	return &rig{eng: eng, rt: rt, env: NewEnv(ctx), sp: sp}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.eng.Spawn("task", func(p *sim.Proc) {
		fn(p)
		r.env.Close()
	})
	if err := sim.NewShardGroup([]*sim.Engine{r.eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDataEnterCopyinAndExitCopyout(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(800, true)
	hb, _ := r.sp.Bytes(host, 800)
	for i := range hb {
		hb[i] = byte(i)
	}
	r.run(t, func(p *sim.Proc) {
		dev, err := r.env.DataEnter(p, host, 800, Copyin)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := r.sp.Bytes(dev, 800)
		for i := range db {
			if db[i] != byte(i) {
				t.Fatalf("copyin mismatch at %d", i)
			}
			db[i] = byte(i + 1) // device-side mutation
		}
		if !r.env.IsPresent(host + 100) {
			t.Fatal("present table missing interior address")
		}
		if err := r.env.DataExit(p, host, Copyout); err != nil {
			t.Fatal(err)
		}
		if hb[0] != 1 {
			t.Fatal("copyout did not write host data")
		}
		if r.env.IsPresent(host) {
			t.Fatal("mapping survived exit data")
		}
	})
	if r.env.Ctx.Stats.HtoDCount != 1 || r.env.Ctx.Stats.DtoHCount != 1 {
		t.Fatalf("stats = %+v", r.env.Ctx.Stats)
	}
}

func TestDataCreateDoesNotCopy(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.env.DataEnter(p, host, 64, Create); err != nil {
			t.Fatal(err)
		}
		if err := r.env.DataExit(p, host, Delete); err != nil {
			t.Fatal(err)
		}
	})
	if (r.env.Ctx.Stats.HtoDCount + r.env.Ctx.Stats.DtoHCount + r.env.Ctx.Stats.DtoDCount + r.env.Ctx.Stats.HtoHCount) != 0 {
		t.Fatal("create/delete must not copy")
	}
}

func TestDataPresentRefcounting(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		d1, err := r.env.DataEnter(p, host, 64, Copyin)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := r.env.DataEnter(p, host, 64, Present)
		if err != nil || d2 != d1 {
			t.Fatalf("nested present: %v, %v vs %v", err, d2, d1)
		}
		// Only one HtoD despite two enters.
		if r.env.Ctx.Stats.HtoDCount != 1 {
			t.Fatal("nested enter re-copied")
		}
		if err := r.env.DataExit(p, host, Delete); err != nil {
			t.Fatal(err)
		}
		if !r.env.IsPresent(host) {
			t.Fatal("mapping dropped before last release")
		}
		if err := r.env.DataExit(p, host, Delete); err != nil {
			t.Fatal(err)
		}
		if r.env.IsPresent(host) {
			t.Fatal("mapping survived last release")
		}
		if _, err := r.env.DataEnter(p, host, 64, Present); err == nil {
			t.Fatal("present on absent data must fail")
		}
	})
}

func TestUpdateDirectives(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(128, true)
	hb, _ := r.sp.Bytes(host, 128)
	r.run(t, func(p *sim.Proc) {
		dev, _ := r.env.DataEnter(p, host, 128, Create)
		hb[0] = 42
		if err := r.env.UpdateDevice(p, host, 128, -1); err != nil {
			t.Fatal(err)
		}
		db, _ := r.sp.Bytes(dev, 128)
		if db[0] != 42 {
			t.Fatal("update device missed")
		}
		db[1] = 43
		if err := r.env.UpdateHost(p, host, 128, -1); err != nil {
			t.Fatal(err)
		}
		if hb[1] != 43 {
			t.Fatal("update host missed")
		}
		// Async update ordering via queue.
		db[2] = 44
		if err := r.env.UpdateHost(p, host, 128, 1); err != nil {
			t.Fatal(err)
		}
		if hb[2] == 44 {
			t.Fatal("async update completed synchronously")
		}
		r.env.Wait(p, 1)
		if hb[2] != 44 {
			t.Fatal("async update lost")
		}
		// Out-of-range update must fail.
		if err := r.env.UpdateDevice(p, host, 256, -1); err == nil {
			t.Fatal("oversized update must fail")
		}
		for _, n := range []int64{-8, math.MaxInt64} {
			var re *xmem.RangeError
			if err := r.env.UpdateHost(p, host+8, n, -1); !errors.As(err, &re) {
				t.Fatalf("UpdateHost(n=%d) = %v, want *xmem.RangeError", n, err)
			}
		}
		if err := r.env.UpdateDevice(p, 0xdead, 8, -1); err == nil {
			t.Fatal("non-present update must fail")
		}
		r.env.DataExit(p, host, Delete)
	})
}

func TestDevicePtrHostPtr(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(100, true)
	r.run(t, func(p *sim.Proc) {
		dev, _ := r.env.DataEnter(p, host, 100, Create)
		d, err := r.env.DevicePtr(host + 10)
		if err != nil || d != dev+10 {
			t.Fatalf("DevicePtr = %v, %v", d, err)
		}
		h, err := r.env.HostPtr(dev + 10)
		if err != nil || h != host+10 {
			t.Fatalf("HostPtr = %v, %v", h, err)
		}
		r.env.DataExit(p, host, Delete)
	})
}

func TestIntegratedDeviceElidesMapping(t *testing.T) {
	// HeteroDemo node 2 exposes CPUAccel devices: data ops must be elided
	// and DevicePtr must be the identity (paper §2.4).
	r := newRig(t, topo.HeteroDemo(), 2, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		dev, err := r.env.DataEnter(p, host, 64, Copyin)
		if err != nil || dev != host {
			t.Fatalf("integrated enter = %v, %v", dev, err)
		}
		d, _ := r.env.DevicePtr(host + 5)
		if d != host+5 {
			t.Fatal("integrated DevicePtr must be identity")
		}
		if !r.env.IsPresent(host) {
			t.Fatal("integrated data is always present")
		}
		if err := r.env.DataExit(p, host, Copyout); err != nil {
			t.Fatal(err)
		}
	})
	if (r.env.Ctx.Stats.HtoDCount + r.env.Ctx.Stats.DtoHCount + r.env.Ctx.Stats.DtoDCount + r.env.Ctx.Stats.HtoHCount) != 0 {
		t.Fatal("integrated device must not copy")
	}
}

func TestOpenCLHandleMinted(t *testing.T) {
	// Beacon devices are OpenCL (Xeon Phi): present-table entries must
	// carry a nonzero memory-object handle (Figure 3).
	r := newRig(t, topo.Beacon(1), 0, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.env.DataEnter(p, host, 64, Create); err != nil {
			t.Fatal(err)
		}
		ent, _, ok := r.env.PT.FindHost(host)
		if !ok || ent.Handle == 0 {
			t.Fatalf("OpenCL entry = %+v, %v", ent, ok)
		}
		r.env.DataExit(p, host, Delete)
	})
}

func TestCUDAHandleZero(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		r.env.DataEnter(p, host, 64, Create)
		ent, _, _ := r.env.PT.FindHost(host)
		if ent.Handle != 0 {
			t.Fatal("CUDA entries use raw device pointers, not handles")
		}
		r.env.DataExit(p, host, Delete)
	})
}

func TestKernelsSyncBlocksAsyncDoesNot(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	spec := device.KernelSpec{Name: "k", FLOPs: 1e10, Kind: device.KindCompute}
	var syncElapsed, asyncElapsed sim.Dur
	r.run(t, func(p *sim.Proc) {
		t0 := p.Now()
		r.env.Kernels(p, spec, -1)
		syncElapsed = sim.Dur(p.Now() - t0)

		t1 := p.Now()
		r.env.Kernels(p, spec, 1)
		asyncElapsed = sim.Dur(p.Now() - t1)
		r.env.Wait(p, 1)
	})
	kdur := device.Duration(r.env.Ctx.Dev.Spec, spec)
	if syncElapsed < kdur {
		t.Fatalf("sync launch took %v, kernel alone is %v", syncElapsed, kdur)
	}
	if asyncElapsed >= kdur {
		t.Fatalf("async launch blocked the host for %v", asyncElapsed)
	}
	if asyncElapsed < r.env.Ctx.Dev.Spec.KernelLaunch {
		t.Fatal("async launch must still pay launch overhead")
	}
	if r.env.WaitTime == 0 {
		t.Fatal("wait time not accounted")
	}
}

func TestWaitAllDrainsEveryQueue(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	var done [4]bool
	r.run(t, func(p *sim.Proc) {
		for q := 1; q <= 3; q++ {
			r.env.Kernels(p, device.KernelSpec{FLOPs: 1e9, Kind: device.KindCompute,
				Body: func() { done[q] = true }}, q)
		}
		r.env.WaitAll(p)
		for q := 1; q <= 3; q++ {
			if !done[q] {
				t.Fatalf("queue %d still pending after WaitAll", q)
			}
		}
	})
	if r.env.Ctx.Stats.KernelCount != 3 {
		t.Fatalf("kernel count = %d", r.env.Ctx.Stats.KernelCount)
	}
}

func TestWaitOnUnknownQueueIsNoop(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	r.run(t, func(p *sim.Proc) {
		r.env.Wait(p, 99) // never created: must not block or panic
	})
}

func TestQueuesIndependentCompletion(t *testing.T) {
	// Figure 5(c): ops on one queue proceed in order; different queues
	// overlap. A short kernel on q2 finishes while a long one runs on q1.
	r := newRig(t, topo.PSG(), 0, 0)
	long := device.KernelSpec{FLOPs: 1e11, Kind: device.KindCompute}
	var shortDone, longDone sim.Time
	r.run(t, func(p *sim.Proc) {
		r.env.Kernels(p, long, 1)
		// Copy on q2 overlaps kernel on q1 (copies do not use the
		// device compute resource).
		host, _ := r.sp.AllocHost(1<<20, true)
		dev, _ := r.env.DataEnter(p, host, 1<<20, Create)
		_ = dev
		r.env.UpdateDevice(p, host, 1<<20, 2)
		e2 := r.env.Stream(2)
		e2.Sync(p)
		shortDone = p.Now()
		r.env.Wait(p, 1)
		longDone = p.Now()
		r.env.DataExit(p, host, Delete)
	})
	if shortDone >= longDone {
		t.Fatalf("queues did not overlap: q2 at %v, q1 at %v", shortDone, longDone)
	}
}

func TestDataEnterDeviceOOM(t *testing.T) {
	// Exhausting the 12 GB GK210 via enter data must surface as an error.
	eng := sim.NewEngine()
	sys := topo.PSG()
	fab := topo.NewShardedFabric(slices.Repeat([]*sim.Engine{eng}, len(sys.Nodes)), sys)
	rt := device.NewRuntime(eng, fab, 0)
	sp := xmem.NewSpace("n", 8)
	env := NewEnv(rt.NewContext(0, sp, 0, false, true))
	host, _ := sp.AllocHost(16<<30, false)
	eng.Spawn("t", func(p *sim.Proc) {
		if _, err := env.DataEnter(p, host, 16<<30, Create); err == nil {
			t.Error("over-capacity enter data must fail")
		}
		env.Close()
	})
	if err := sim.NewShardGroup([]*sim.Engine{eng}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDataExitOnAbsentMapping(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		if err := r.env.DataExit(p, host, Delete); err == nil {
			t.Error("exit of unmapped data must fail")
		}
		if _, err := r.env.HostPtr(0xdead); err == nil {
			t.Error("HostPtr of unknown device address must fail")
		}
	})
}

func TestIntegratedUpdateHostNoop(t *testing.T) {
	r := newRig(t, topo.HeteroDemo(), 2, 0)
	host, _ := r.sp.AllocHost(64, true)
	r.run(t, func(p *sim.Proc) {
		if err := r.env.UpdateHost(p, host, 64, -1); err != nil {
			t.Error(err)
		}
		if h, err := r.env.HostPtr(host); err != nil || h != host {
			t.Error("integrated HostPtr must be identity")
		}
	})
}

func TestWaitAsyncCrossQueueDependency(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	long := device.KernelSpec{Name: "long", FLOPs: 1e11, Kind: device.KindCompute}
	short := device.KernelSpec{Name: "short", FLOPs: 1e8, Kind: device.KindCompute}
	var order []string
	r.run(t, func(p *sim.Proc) {
		r.env.Kernels(p, device.KernelSpec{Name: "l", FLOPs: long.FLOPs, Kind: long.Kind,
			Body: func() { order = append(order, "q1-long") }}, 1)
		// Queue 2 must not start its kernel before queue 1 finishes.
		r.env.WaitAsync(1, 2)
		r.env.Kernels(p, device.KernelSpec{Name: "s", FLOPs: short.FLOPs, Kind: short.Kind,
			Body: func() { order = append(order, "q2-short") }}, 2)
		r.env.WaitAll(p)
	})
	if len(order) != 2 || order[0] != "q1-long" || order[1] != "q2-short" {
		t.Fatalf("order = %v (q2 overtook the dependency)", order)
	}
}

func TestWaitAsyncNoopCases(t *testing.T) {
	r := newRig(t, topo.PSG(), 0, 0)
	r.run(t, func(p *sim.Proc) {
		r.env.WaitAsync(5, 6) // queue 5 never created: no-op
		r.env.WaitAsync(1, 1) // self-dependency: no-op
	})
}
