package core

import (
	"fmt"
	"strings"
	"testing"

	"impacc/internal/acc"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

func psgCfg(mode Mode, maxTasks int) Config {
	return Config{System: topo.PSG(), Mode: mode, Backed: true, MaxTasks: maxTasks}
}

func mustRun(t *testing.T, cfg Config, prog Program) *Report {
	t.Helper()
	rep, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBuildMappingFigure2(t *testing.T) {
	sys := topo.HeteroDemo()
	// acc_device_default: every accelerator, node-major.
	all := BuildMapping(sys, 0, 0)
	if len(all) != 11 {
		t.Fatalf("default mapping = %d tasks, want 11", len(all))
	}
	if all[0] != (Placement{0, 0}) || all[4] != (Placement{1, 0}) {
		t.Fatalf("mapping order wrong: %+v", all)
	}
	// acc_device_nvidia: 3 GPUs.
	nv := BuildMapping(sys, topo.MaskOf(topo.NVIDIAGPU), 0)
	if len(nv) != 3 {
		t.Fatalf("nvidia mapping = %d, want 3", len(nv))
	}
	// acc_device_cpu: 6 CPU accelerators.
	if got := len(BuildMapping(sys, topo.MaskOf(topo.CPUAccel), 0)); got != 6 {
		t.Fatalf("cpu mapping = %d, want 6", got)
	}
	// nvidia|xeonphi: 5.
	if got := len(BuildMapping(sys, topo.MaskOf(topo.NVIDIAGPU, topo.XeonPhi), 0)); got != 5 {
		t.Fatalf("nvidia|xeonphi mapping = %d, want 5", got)
	}
	// MaxTasks caps.
	if got := len(BuildMapping(sys, 0, 4)); got != 4 {
		t.Fatalf("capped mapping = %d, want 4", got)
	}
}

func TestRunLaunchesTaskPerDevice(t *testing.T) {
	seen := make(map[int]Placement)
	rep := mustRun(t, psgCfg(IMPACC, 0), func(tk *Task) {
		seen[tk.Rank()] = Placement{tk.NodeIdx(), 0}
		if tk.Size() != 8 {
			t.Errorf("size = %d, want 8", tk.Size())
		}
		if tk.DeviceType() != topo.NVIDIAGPU {
			t.Errorf("device type = %v", tk.DeviceType())
		}
	})
	if len(seen) != 8 || rep.NTasks != 8 {
		t.Fatalf("tasks = %d, want 8 (one per PSG GPU)", len(seen))
	}
}

func TestNoMatchingDevices(t *testing.T) {
	cfg := psgCfg(IMPACC, 0)
	cfg.DeviceTypes = topo.MaskOf(topo.FPGA)
	if _, err := Run(cfg, func(tk *Task) {}); err == nil {
		t.Fatal("run with no matching devices must fail")
	}
}

func TestSendRecvIntraNode(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(800)
		defer tk.Free(buf)
		v := tk.Floats(buf, 100)
		if tk.Rank() == 0 {
			for i := range v {
				v[i] = float64(i) * 1.25
			}
			tk.Send(buf, 100, mpi.Float64, 1, 7)
		} else {
			tk.Recv(buf, 100, mpi.Float64, 0, 7)
			for i := range v {
				if v[i] != float64(i)*1.25 {
					t.Errorf("recv[%d] = %v", i, v[i])
				}
			}
		}
	})
	if rep.TotalHub().FusedCopies != 1 {
		t.Fatalf("fused copies = %d, want 1", rep.TotalHub().FusedCopies)
	}
}

func TestSendRecvInternode(t *testing.T) {
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}
	rep := mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(64)
		b := tk.Bytes(buf, 64)
		if tk.Rank() == 0 {
			b[5] = 0xAB
			tk.Send(buf, 64, mpi.Byte, 1, 0)
		} else {
			tk.Recv(buf, 64, mpi.Byte, 0, 0)
			if b[5] != 0xAB {
				t.Error("internode payload lost")
			}
		}
	})
	if rep.TotalHub().NetOut != 1 {
		t.Fatalf("net out = %d", rep.TotalHub().NetOut)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		a := tk.Malloc(256)
		b := tk.Malloc(256)
		if tk.Rank() == 0 {
			va := tk.Floats(a, 32)
			va[0] = 42
			s := tk.Isend(a, 32, mpi.Float64, 1, 1)
			r := tk.Irecv(b, 32, mpi.Float64, 1, 2)
			tk.Wait(s, r)
			if tk.Floats(b, 32)[0] != 43 {
				t.Error("rank 0 recv wrong")
			}
		} else {
			vb := tk.Floats(b, 32)
			vb[0] = 43
			s := tk.Isend(b, 32, mpi.Float64, 0, 2)
			r := tk.Irecv(a, 32, mpi.Float64, 0, 1)
			tk.Wait(s, r)
			if tk.Floats(a, 32)[0] != 42 {
				t.Error("rank 1 recv wrong")
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		mine := tk.Malloc(8)
		theirs := tk.Malloc(8)
		tk.Floats(mine, 1)[0] = float64(tk.Rank() + 100)
		peer := 1 - tk.Rank()
		tk.Sendrecv(mine, 1, mpi.Float64, peer, 3, theirs, 1, mpi.Float64, peer, 3)
		if got := tk.Floats(theirs, 1)[0]; got != float64(peer+100) {
			t.Errorf("rank %d got %v", tk.Rank(), got)
		}
	})
}

func TestAnySourceRecv(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 3), func(tk *Task) {
		buf := tk.Malloc(8)
		switch tk.Rank() {
		case 0:
			got := map[float64]bool{}
			for i := 0; i < 2; i++ {
				tk.Recv(buf, 1, mpi.Float64, AnySource, AnyTag)
				got[tk.Floats(buf, 1)[0]] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("wildcard recv payloads = %v", got)
			}
		default:
			tk.Floats(buf, 1)[0] = float64(tk.Rank())
			tk.Send(buf, 1, mpi.Float64, 0, tk.Rank()*5)
		}
	})
}

func TestDeviceBufferSend(t *testing.T) {
	// #pragma acc mpi sendbuf(device): send straight from device memory.
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		host := tk.Malloc(800)
		dev := tk.DataEnter(host, 800, acc.Create)
		if tk.Rank() == 0 {
			// Fill device copy directly (stands in for a kernel's output).
			v, _ := tk.space.Float64s(dev, 100)
			for i := range v {
				v[i] = float64(i)
			}
			tk.Send(host, 100, mpi.Float64, 1, 0, OnDevice())
		} else {
			tk.Recv(host, 100, mpi.Float64, 0, 0, OnDevice())
			v, _ := tk.space.Float64s(dev, 100)
			for i := range v {
				if v[i] != float64(i) {
					t.Errorf("device recv[%d] = %v", i, v[i])
					break
				}
			}
		}
		tk.DataExit(host, acc.Delete)
	})
	dev := rep.TotalDev()
	if dev.DtoDCount != 1 {
		t.Fatalf("DtoD fused copies = %d, want 1 (Figure 6)", dev.DtoDCount)
	}
}

func TestLegacyRejectsImpaccExtensions(t *testing.T) {
	cfg := psgCfg(Legacy, 2)
	_, err := Run(cfg, func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			tk.Send(buf, 1, mpi.Float64, 1, 0, Async(1))
		} else {
			tk.Recv(buf, 1, mpi.Float64, 0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "unified activity queue") {
		t.Fatalf("legacy async send error = %v", err)
	}
}

func TestUnifiedActivityQueuePipelines(t *testing.T) {
	// Figure 4(c)/5(c): kernel -> isend -> irecv -> kernel all on queue 1;
	// the host must not block between operations.
	var hostFree [2]sim.Dur
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		n := int64(1 << 20)
		buf0 := tk.Malloc(n)
		buf1 := tk.Malloc(n)
		d0 := tk.DataEnter(buf0, n, acc.Create)
		d1 := tk.DataEnter(buf1, n, acc.Create)
		_, _ = d0, d1
		peer := 1 - tk.Rank()
		spec := device.KernelSpec{Name: "k", FLOPs: 1e9, Kind: device.KindCompute}
		t0 := tk.Now()
		tk.Kernels(spec, 1)
		tk.Isend(buf0, int(n/8), mpi.Float64, peer, 1, OnDevice(), Async(1))
		tk.Irecv(buf1, int(n/8), mpi.Float64, peer, 1, OnDevice(), Async(1))
		tk.Kernels(spec, 1)
		hostFree[tk.Rank()] = dur(tk.Now() - t0) // time host spent issuing
		tk.ACCWait(1)
		tk.DataExit(buf0, acc.Delete)
		tk.DataExit(buf1, acc.Delete)
	})
	for r, d := range hostFree {
		// Issuing 4 async ops must cost far less than one kernel (~1ms).
		if d > sim.Dur(500*sim.Microsecond) {
			t.Fatalf("rank %d host blocked %v while issuing async pipeline", r, d)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [4]sim.Time
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		// Stagger arrival; everyone leaves together (>= slowest arrival).
		tk.Busy(sim.Dur(tk.Rank()+1) * sim.Millisecond)
		tk.Barrier()
		after[tk.Rank()] = tk.Now()
	})
	for r, at := range after {
		if at < sim.Time(4*sim.Millisecond) {
			t.Fatalf("rank %d left barrier at %v, before slowest arrival", r, at)
		}
	}
}

func TestBcastDataAndAliasing(t *testing.T) {
	// Readonly bcast across one node: intra-node hops should use node heap
	// aliasing (paper §3.8 collective discussion).
	rep := mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		buf := tk.Malloc(800)
		if tk.Rank() == 0 {
			v := tk.Floats(buf, 100)
			for i := range v {
				v[i] = float64(i) + 0.5
			}
		}
		tk.Bcast(buf, 100, mpi.Float64, 0, ReadOnly())
		v := tk.Floats(buf, 100)
		for i := range v {
			if v[i] != float64(i)+0.5 {
				t.Errorf("rank %d bcast[%d] = %v", tk.Rank(), i, v[i])
				break
			}
		}
	})
	if got := rep.TotalHub().Aliases; got != 3 {
		t.Fatalf("aliases = %d, want 3 (every non-root task)", got)
	}
}

func TestBcastWithoutReadonlyCopies(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		buf := tk.Malloc(800)
		tk.Bcast(buf, 100, mpi.Float64, 0)
	})
	if rep.TotalHub().Aliases != 0 {
		t.Fatal("non-readonly bcast must not alias")
	}
	if rep.TotalHub().FusedCopies != 3 {
		t.Fatalf("fused = %d, want 3", rep.TotalHub().FusedCopies)
	}
}

func TestBcastInternodeTwoLevel(t *testing.T) {
	// 2 Beacon nodes x 4 devices: root sends to the other node's leader
	// once; local fan-out covers the rest (paper §3.8).
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true}
	rep := mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(80)
		if tk.Rank() == 0 {
			tk.Floats(buf, 10)[3] = 33
		}
		tk.Bcast(buf, 10, mpi.Float64, 0)
		if tk.Floats(buf, 10)[3] != 33 {
			t.Errorf("rank %d missed bcast", tk.Rank())
		}
	})
	if got := rep.TotalHub().NetOut; got != 1 {
		t.Fatalf("internode messages = %d, want 1 (one per remote node)", got)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 8), func(tk *Task) {
		in := tk.Malloc(32)
		out := tk.Malloc(32)
		v := tk.Floats(in, 4)
		for i := range v {
			v[i] = float64(tk.Rank() + i)
		}
		tk.Reduce(in, out, 4, mpi.Float64, mpi.Sum, 0)
		if tk.Rank() == 0 {
			// sum over r of (r+i) = 28 + 8i
			got := tk.Floats(out, 4)
			for i := range got {
				if got[i] != float64(28+8*i) {
					t.Errorf("reduce[%d] = %v, want %d", i, got[i], 28+8*i)
				}
			}
		}
		res := tk.Malloc(32)
		tk.Allreduce(in, res, 4, mpi.Float64, mpi.Max)
		got := tk.Floats(res, 4)
		for i := range got {
			if got[i] != float64(7+i) {
				t.Errorf("allreduce[%d] = %v, want %d", i, got[i], 7+i)
			}
		}
	})
}

func TestGatherScatter(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		n := tk.Size()
		mine := tk.Malloc(8)
		all := tk.Malloc(int64(8 * n))
		tk.Floats(mine, 1)[0] = float64(tk.Rank() * 11)
		tk.Gather(mine, 1, mpi.Float64, all, 0)
		if tk.Rank() == 0 {
			v := tk.Floats(all, n)
			for i := range v {
				if v[i] != float64(i*11) {
					t.Errorf("gather[%d] = %v", i, v[i])
				}
			}
			for i := range v {
				v[i] = float64(i * 7)
			}
		}
		back := tk.Malloc(8)
		tk.Scatter(all, 1, mpi.Float64, back, 0)
		if got := tk.Floats(back, 1)[0]; got != float64(tk.Rank()*7) {
			t.Errorf("scatter rank %d = %v", tk.Rank(), got)
		}
	})
}

func TestAllgatherAlltoall(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		n := tk.Size()
		mine := tk.Malloc(8)
		all := tk.Malloc(int64(8 * n))
		tk.Floats(mine, 1)[0] = float64(tk.Rank() + 1)
		tk.Allgather(mine, 1, mpi.Float64, all)
		v := tk.Floats(all, n)
		for i := range v {
			if v[i] != float64(i+1) {
				t.Errorf("allgather[%d] = %v", i, v[i])
			}
		}
		// Alltoall: element j of rank i's send = 100*i + j.
		sbuf := tk.Malloc(int64(8 * n))
		rbuf := tk.Malloc(int64(8 * n))
		sv := tk.Floats(sbuf, n)
		for j := range sv {
			sv[j] = float64(100*tk.Rank() + j)
		}
		tk.Alltoall(sbuf, 1, mpi.Float64, rbuf)
		rv := tk.Floats(rbuf, n)
		for i := range rv {
			if rv[i] != float64(100*i+tk.Rank()) {
				t.Errorf("alltoall rank %d slot %d = %v", tk.Rank(), i, rv[i])
			}
		}
	})
}

func TestFreeAliasedBufferRefcounts(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		if tk.Rank() == 0 {
			src := tk.Malloc(256)
			tk.Send(src, 32, mpi.Float64, 1, 0, ReadOnly())
			// Producer frees after the consumer aliased: storage must
			// survive until the consumer also frees.
			tk.Barrier()
			tk.Free(src)
		} else {
			dst := tk.Malloc(256)
			tk.Recv(dst, 32, mpi.Float64, 0, 0, ReadOnly())
			tk.Barrier()
			// Read through the alias after the producer freed.
			_ = tk.Floats(dst, 32)[0]
			tk.Free(dst)
		}
	})
}

func TestPinPolicyAffectsTransfers(t *testing.T) {
	run := func(pin PinPolicy) sim.Dur {
		cfg := psgCfg(IMPACC, 1)
		cfg.Pin = pin
		var elapsed sim.Dur
		mustRun(t, cfg, func(tk *Task) {
			buf := tk.Malloc(64 << 20)
			t0 := tk.Now()
			tk.DataEnter(buf, 64<<20, acc.Copyin)
			elapsed = dur(tk.Now() - t0)
			tk.DataExit(buf, acc.Delete)
		})
		return elapsed
	}
	near := run(PinNear)
	far := run(PinFar)
	ratio := float64(far) / float64(near)
	if ratio < 3.0 || ratio > 3.7 {
		t.Fatalf("far/near HtoD ratio = %.2f, want ~3.5 (Figure 8)", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Dur {
		cfg := psgCfg(IMPACC, 4)
		cfg.JitterPct = 2
		cfg.Seed = 99
		rep := mustRun(t, cfg, func(tk *Task) {
			buf := tk.Malloc(1 << 20)
			tk.Compute(1e7)
			tk.Bcast(buf, 1<<17, mpi.Float64, 0)
			tk.Barrier()
		})
		return rep.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs diverged: %v vs %v", a, b)
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		if tk.Rank() == 1 {
			tk.failf("boom")
		} else {
			buf := tk.Malloc(8)
			tk.Recv(buf, 1, mpi.Float64, 1, 0) // never satisfied
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want task failure", err)
	}
	re, ok := err.(*RunError)
	if !ok || re.Rank != 1 {
		t.Fatalf("error type = %T (%v)", err, err)
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(8)
		// Both tasks receive; nobody sends.
		tk.Recv(buf, 1, mpi.Float64, 1-tk.Rank(), 0)
	})
	if err == nil {
		t.Fatal("deadlock must surface as an error")
	}
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %T, want DeadlockError", err)
	}
}

func TestReportAggregates(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(1 << 10)
		tk.Kernels(device.KernelSpec{FLOPs: 1e8, Kind: device.KindCompute}, -1)
		if tk.Rank() == 0 {
			tk.Send(buf, 128, mpi.Float64, 1, 0)
		} else {
			tk.Recv(buf, 128, mpi.Float64, 0, 0)
		}
	})
	if rep.TotalDev().KernelCount != 2 {
		t.Fatalf("kernel count = %d", rep.TotalDev().KernelCount)
	}
	if rep.Elapsed == 0 || rep.MeanKernel() == 0 {
		t.Fatal("empty aggregates")
	}
	var sb strings.Builder
	rep.Print(&sb)
	if !strings.Contains(sb.String(), "IMPACC on PSG") {
		t.Fatalf("report print = %q", sb.String())
	}
	if rep.MaxComm() == 0 {
		t.Fatal("comm time missing")
	}
}

func TestLegacyModeRunsSameProgram(t *testing.T) {
	// The identical program must produce identical data under both modes.
	prog := func(tk *Task) {
		buf := tk.Malloc(80)
		if tk.Rank() == 0 {
			v := tk.Floats(buf, 10)
			for i := range v {
				v[i] = float64(i * i)
			}
		}
		tk.Bcast(buf, 10, mpi.Float64, 0)
		sum := 0.0
		for _, x := range tk.Floats(buf, 10) {
			sum += x
		}
		if sum != 285 {
			t.Errorf("mode data mismatch: sum = %v", sum)
		}
	}
	repI := mustRun(t, psgCfg(IMPACC, 4), prog)
	repL := mustRun(t, psgCfg(Legacy, 4), prog)
	if repL.TotalHub().FusedCopies != 0 || repL.TotalHub().Aliases != 0 {
		t.Fatal("legacy run used IMPACC techniques")
	}
	if repI.TotalHub().LegacyCopies != 0 {
		t.Fatal("IMPACC run used legacy transport")
	}
}

func TestSetDeviceNumIgnored(t *testing.T) {
	// Paper §3.2: the mapping is fixed; acc_set_device_num is ignored.
	mustRun(t, psgCfg(IMPACC, 3), func(tk *Task) {
		matched := tk.SetDeviceNum(tk.DeviceIndex())
		if !matched {
			t.Errorf("rank %d: matching SetDeviceNum reported false", tk.Rank())
		}
		if tk.SetDeviceNum(tk.DeviceIndex() + 1) {
			t.Errorf("rank %d: mismatched SetDeviceNum reported true", tk.Rank())
		}
		// The attached device must be unchanged regardless.
		if tk.DeviceIndex() != tk.Rank() {
			t.Errorf("mapping changed: rank %d device %d", tk.Rank(), tk.DeviceIndex())
		}
	})
}

func TestSegmentedBcastDataIntegrity(t *testing.T) {
	// Large internode broadcast exercises the segmented pipelined tree:
	// every byte must land on every task.
	cfg := Config{System: topo.Beacon(4), Mode: IMPACC, Backed: true, Seed: 5}
	n := int64(12 << 20) // 3 segments of 4 MiB
	mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(n)
		if tk.Rank() == 0 {
			b := tk.Bytes(buf, n)
			for i := range b {
				b[i] = byte(i*7 + 13)
			}
		}
		tk.Bcast(buf, int(n/8), mpi.Float64, 0)
		b := tk.Bytes(buf, n)
		for _, i := range []int64{0, 1, n/2 - 1, n / 2, n - 2, n - 1, 4<<20 - 1, 4 << 20, 8 << 20} {
			if b[i] != byte(int(i)*7+13) {
				t.Fatalf("rank %d byte %d = %d, want %d", tk.Rank(), i, b[i], byte(int(i)*7+13))
			}
		}
	})
}

func TestSegmentedBcastPipelines(t *testing.T) {
	// The pipelined tree must beat a depth-x-message lower bound: for 8
	// Titan nodes (depth 3), an unsegmented tree costs >= 3 full-message
	// times at the root alone; the pipeline should land well under that.
	sys := topo.Titan(8)
	n := 64 << 20
	cfg := Config{System: sys, Mode: IMPACC, Backed: false}
	var done sim.Time
	mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(int64(n))
		tk.Bcast(buf, n/8, mpi.Float64, 0)
		if tk.Now() > done {
			done = tk.Now()
		}
	})
	full := sim.DurFromSeconds(float64(n) / (4.5 * 1e9)) // one message over Gemini
	if sim.Dur(done) > 2*full {
		t.Fatalf("segmented bcast took %v, want < 2 full-message times (%v)", sim.Dur(done), full)
	}
}

func TestBcastNonRootOrigin(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		buf := tk.Malloc(64)
		if tk.Rank() == 2 {
			tk.Floats(buf, 8)[0] = 2.5
		}
		tk.Bcast(buf, 8, mpi.Float64, 2)
		if got := tk.Floats(buf, 8)[0]; got != 2.5 {
			t.Errorf("rank %d: bcast from root 2 got %v", tk.Rank(), got)
		}
	})
}

func TestReduceOnDeviceBuffers(t *testing.T) {
	// sendbuf(device) reduction: partials live in device memory; the root
	// accumulates into its device-mapped recv buffer.
	mustRun(t, psgCfg(IMPACC, 4), func(tk *Task) {
		host := tk.Malloc(64)
		tk.DataEnter(host, 64, acc.Create)
		dv := tk.Floats(tk.DevicePtr(host), 8)
		for i := range dv {
			dv[i] = float64(tk.Rank() + 1)
		}
		out := tk.Malloc(64)
		tk.DataEnter(out, 64, acc.Create)
		tk.Reduce(host, out, 8, mpi.Float64, mpi.Sum, 0, OnDevice())
		if tk.Rank() == 0 {
			got := tk.Floats(tk.DevicePtr(out), 8)
			for i, v := range got {
				if v != 10 { // 1+2+3+4
					t.Errorf("device reduce[%d] = %v, want 10", i, v)
				}
			}
		}
		tk.DataExit(out, acc.Delete)
		tk.DataExit(host, acc.Delete)
	})
}

func TestUnifiedQueueErrorSurfaces(t *testing.T) {
	// A failing MPI operation on a unified queue must abort the run when
	// the queue drains (truncating receive).
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(1024)
		small := tk.Malloc(64)
		if tk.Rank() == 0 {
			tk.Isend(buf, 128, mpi.Float64, 1, 0, Async(1))
		} else {
			tk.Irecv(small, 8, mpi.Float64, 0, 0, Async(1)) // too small
		}
		tk.ACCWait(1)
	})
	if err == nil || !strings.Contains(err.Error(), "truncation") {
		t.Fatalf("err = %v, want truncation", err)
	}
}

func TestFreeUnknownAddressFails(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 1), func(tk *Task) {
		tk.Free(0xdeadbeef)
	})
	if err == nil {
		t.Fatal("freeing an unmapped address must fail the task")
	}
}

func TestNegativeAppTagRejected(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			tk.Send(buf, 1, mpi.Float64, 1, -5)
		} else {
			tk.Recv(buf, 1, mpi.Float64, 0, -5)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("err = %v, want tag rejection", err)
	}
}

func TestRequestDoneAndWaitNil(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			r := tk.Isend(buf, 1, mpi.Float64, 1, 0)
			tk.Wait(nil, r) // nil requests are skipped
			if !r.cmd.Done.Fired() {
				t.Error("request not done after Wait")
			}
		} else {
			tk.Recv(buf, 1, mpi.Float64, 0, 0)
		}
	})
}

func TestComputeUsesPinnedSocketRate(t *testing.T) {
	var elapsed sim.Dur
	mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		t0 := tk.Now()
		tk.Compute(589e9) // one second of socket-rate flops
		elapsed = dur(tk.Now() - t0)
	})
	if elapsed < sim.Second*99/100 || elapsed > sim.Second*101/100 {
		t.Fatalf("Compute(1s of flops) = %v", elapsed)
	}
}

func TestDataRegionStructured(t *testing.T) {
	mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		a := tk.Malloc(256)
		b := tk.Malloc(256)
		tk.Floats(a, 32)[0] = 3
		tk.DataRegion([]DataRange{
			{Addr: a, Bytes: 256, Enter: acc.Copyin, Exit: acc.Delete},
			{Addr: b, Bytes: 256, Enter: acc.Create, Exit: acc.Copyout},
		}, func() {
			if !tk.ACC().IsPresent(a) || !tk.ACC().IsPresent(b) {
				t.Error("ranges not present inside region")
			}
			// Device-side work writing b.
			tk.Floats(tk.DevicePtr(b), 32)[0] = 7
		})
		if tk.ACC().IsPresent(a) || tk.ACC().IsPresent(b) {
			t.Error("mappings survived region end")
		}
		if tk.Floats(b, 32)[0] != 7 {
			t.Error("copyout at region end missed")
		}
	})
}

func TestDataRegionUnwindsOnFailure(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 1), func(tk *Task) {
		a := tk.Malloc(64)
		tk.DataRegion([]DataRange{{Addr: a, Bytes: 64, Enter: acc.Copyin, Exit: acc.Delete}}, func() {
			tk.failf("inner failure")
		})
	})
	if err == nil || !strings.Contains(err.Error(), "inner failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestTaskAccessorsAndACCFacade(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true, Seed: 2}
	rep := mustRun(t, cfg, func(tk *Task) {
		if tk.NumNodes() != 2 {
			t.Errorf("NumNodes = %d", tk.NumNodes())
		}
		if tk.LocalIndex() != tk.Rank()%4 {
			t.Errorf("rank %d local index = %d", tk.Rank(), tk.LocalIndex())
		}
		if tk.DeviceSpec().Class != topo.XeonPhi {
			t.Error("DeviceSpec wrong")
		}
		if tk.RNG() == nil || tk.ACC() == nil {
			t.Error("accessors nil")
		}
		// Update paths through the Task facade.
		buf := tk.Malloc(4096)
		tk.DataEnter(buf, 4096, acc.Create)
		tk.UpdateDevice(buf, 4096, -1)
		tk.UpdateHost(buf, 4096, -1)
		tk.UpdateDevice(buf, 4096, 1)
		tk.UpdateHost(buf, 4096, 1)
		tk.ACCWaitAll()
		tk.DataExit(buf, acc.Delete)
		// CopyLocal charges a host copy.
		a, b := tk.Malloc(1024), tk.Malloc(1024)
		tk.Bytes(a, 1024)[5] = 0x7c
		tk.CopyLocal(b, a, 1024)
		if tk.Bytes(b, 1024)[5] != 0x7c {
			t.Error("CopyLocal lost data")
		}
	})
	if rep.Tasks[0].Dev.HtoDCount < 2 {
		t.Fatal("facade updates did not transfer")
	}
}

func TestRuntimeTasksAccessor(t *testing.T) {
	rt, err := NewRuntime(psgCfg(IMPACC, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.tasks) != 3 {
		t.Fatalf("tasks = %d", len(rt.tasks))
	}
	if _, err := rt.Execute(func(tk *Task) {}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorUnwrap(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 1), func(tk *Task) {
		tk.Fail(errSentinel)
	})
	re, ok := err.(*RunError)
	if !ok || re.Unwrap() != errSentinel {
		t.Fatalf("unwrap = %v", err)
	}
}

var errSentinel = fmt.Errorf("sentinel")

func TestCheckCmdOnTruncatedWait(t *testing.T) {
	_, err := Run(psgCfg(IMPACC, 2), func(tk *Task) {
		big := tk.Malloc(1024)
		small := tk.Malloc(64)
		if tk.Rank() == 0 {
			s := tk.Isend(big, 128, mpi.Float64, 1, 0)
			tk.Wait(s)
		} else {
			r := tk.Irecv(small, 8, mpi.Float64, 0, 0)
			tk.Wait(r)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "truncation") {
		t.Fatalf("err = %v", err)
	}
}

func TestLeakDetection(t *testing.T) {
	rep := mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		buf := tk.Malloc(256)
		tk.DataEnter(buf, 256, acc.Copyin) // never exited
	})
	if rep.Tasks[0].LeakedMappings != 1 {
		t.Fatalf("leaks = %d, want 1", rep.Tasks[0].LeakedMappings)
	}
	clean := mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		buf := tk.Malloc(256)
		tk.DataEnter(buf, 256, acc.Copyin)
		tk.DataExit(buf, acc.Delete)
	})
	if clean.Tasks[0].LeakedMappings != 0 {
		t.Fatalf("clean run leaks = %d", clean.Tasks[0].LeakedMappings)
	}
}

func TestReportUtilizationFields(t *testing.T) {
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}
	rep := mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(1 << 20)
		if tk.Rank() == 0 {
			tk.Send(buf, 1<<17, mpi.Float64, 1, 0)
		} else {
			tk.Recv(buf, 1<<17, mpi.Float64, 0, 0)
		}
	})
	if rep.Hubs[0].NICOutBusy == 0 {
		t.Fatal("sender NIC busy time missing")
	}
	if rep.Hubs[1].NICInBusy == 0 {
		t.Fatal("receiver NIC busy time missing")
	}
	if len(rep.Hubs[0].PCIeBusy) != 1 {
		t.Fatal("PCIe busy slots missing")
	}
}

func TestACCWaitAsyncWithUnifiedMPI(t *testing.T) {
	// Queue 2's kernel must observe data received by queue 1's MPI op,
	// ordered purely on the device via wait(1) async(2).
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(256)
		tk.DataEnter(buf, 256, acc.Create)
		peer := 1 - tk.Rank()
		if tk.Rank() == 0 {
			v := tk.Floats(tk.DevicePtr(buf), 32)
			v[7] = 42
			tk.Isend(buf, 32, mpi.Float64, peer, 1, OnDevice(), Async(1))
			tk.ACCWait(1)
		} else {
			tk.Irecv(buf, 32, mpi.Float64, peer, 1, OnDevice(), Async(1))
			tk.ACCWaitAsync(1, 2)
			var got float64
			tk.Kernels(device.KernelSpec{Name: "consume", FLOPs: 1e6, Kind: device.KindCompute,
				Body: func() { got = tk.Floats(tk.DevicePtr(buf), 32)[7] }}, 2)
			tk.ACCWait(2)
			if got != 42 {
				t.Errorf("kernel ran before the cross-queue dependency: got %v", got)
			}
		}
		tk.DataExit(buf, acc.Delete)
	})
}

func TestZeroCountMessages(t *testing.T) {
	// count=0 sends are legal MPI synchronization messages, intra-node
	// and internode, even with a Nil-ish buffer address.
	mustRun(t, psgCfg(IMPACC, 2), func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			tk.Send(buf, 0, mpi.Float64, 1, 1)
		} else {
			st := tk.RecvStatus(buf, 0, mpi.Float64, 0, 1)
			if st.Count != 0 || st.Source != 0 {
				t.Errorf("zero-count status = %+v", st)
			}
		}
	})
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}
	mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 0 {
			tk.Send(buf, 0, mpi.Float64, 1, 1)
		} else {
			tk.Recv(buf, 0, mpi.Float64, 0, 1)
		}
	})
}
