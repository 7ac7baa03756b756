package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"impacc/internal/acc"
	"impacc/internal/device"
	"impacc/internal/fault"
	"impacc/internal/mpi"
	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// TestCollectivesRejectAsync: every collective must reject an async clause
// uniformly — collectives synchronize by definition, so queueing one on an
// acc async lane is always a program error, never silently ignored.
func TestCollectivesRejectAsync(t *testing.T) {
	cases := []struct {
		name string
		call func(tk *Task, in, out xmem16)
	}{
		{"Bcast", func(tk *Task, in, out xmem16) { tk.Bcast(in.a, 2, mpi.Float64, 0, Async(1)) }},
		{"Reduce", func(tk *Task, in, out xmem16) { tk.Reduce(in.a, out.a, 2, mpi.Float64, mpi.Sum, 0, Async(1)) }},
		{"Allreduce", func(tk *Task, in, out xmem16) { tk.Allreduce(in.a, out.a, 2, mpi.Float64, mpi.Sum, Async(1)) }},
		{"Gather", func(tk *Task, in, out xmem16) { tk.Gather(in.a, 2, mpi.Float64, out.big, 0, Async(1)) }},
		{"Scatter", func(tk *Task, in, out xmem16) { tk.Scatter(in.big, 2, mpi.Float64, out.a, 0, Async(1)) }},
		{"Allgather", func(tk *Task, in, out xmem16) { tk.Allgather(in.a, 2, mpi.Float64, out.big, Async(1)) }},
		{"Alltoall", func(tk *Task, in, out xmem16) { tk.Alltoall(in.big, 2, mpi.Float64, out.big, Async(1)) }},
		{"ReduceScatter", func(tk *Task, in, out xmem16) {
			tk.ReduceScatter(in.big, out.a, 2, mpi.Float64, mpi.Sum, Async(1))
		}},
		{"Scan", func(tk *Task, in, out xmem16) { tk.Scan(in.a, out.a, 2, mpi.Float64, mpi.Sum, Async(1)) }},
		{"Gatherv", func(tk *Task, in, out xmem16) {
			counts, displs := vParams(tk.Size())
			tk.Gatherv(in.a, 2, mpi.Float64, out.big, counts, displs, 0, Async(1))
		}},
		{"Scatterv", func(tk *Task, in, out xmem16) {
			counts, displs := vParams(tk.Size())
			tk.Scatterv(in.big, counts, displs, mpi.Float64, out.a, 2, 0, Async(1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(psgCfg(IMPACC, 4), func(tk *Task) {
				bufs := xmem16{a: tk.Malloc(16), big: tk.Malloc(int64(16 * tk.Size()))}
				tc.call(tk, bufs, bufs)
			})
			if err == nil || !strings.Contains(err.Error(), "async") {
				t.Fatalf("%s with Async(1): err = %v, want async-clause rejection", tc.name, err)
			}
		})
	}
}

// xmem16 carries a small per-rank buffer and a size*16 root buffer.
type xmem16 struct{ a, big xmem.Addr }

func vParams(size int) (counts, displs []int) {
	counts = make([]int, size)
	displs = make([]int, size)
	for i := range counts {
		counts[i] = 2
		displs[i] = 2 * i
	}
	return
}

// TestReduceScatterMatchesNaive checks element correctness of the
// root-scratch ReduceScatter against a naively computed reduction, with a
// block size that differs per test run position and ranks spread over two
// nodes (the temp buffer now exists on the root only).
func TestReduceScatterMatchesNaive(t *testing.T) {
	const count = 5 // odd block size to catch stride bugs
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true}
	mustRun(t, cfg, func(tk *Task) {
		n := tk.Size()
		in := tk.Malloc(int64(8 * count * n))
		out := tk.Malloc(8 * count)
		v := tk.Floats(in, count*n)
		for i := range v {
			v[i] = float64((tk.Rank()+2)*(i+3)) / 7
		}
		tk.ReduceScatter(in, out, count, mpi.Float64, mpi.Sum)
		got := tk.Floats(out, count)
		for j := 0; j < count; j++ {
			i := count*tk.Rank() + j
			want := 0.0
			for r := 0; r < n; r++ {
				want += float64((r + 2) * (i + 3))
			}
			want /= 7
			if diff := got[j] - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("rank %d block[%d] = %v, want %v", tk.Rank(), j, got[j], want)
			}
		}
	})
}

// chaosProgram exercises every injected fault surface: compute (straggler),
// internode p2p (link degrade/stall), and collectives.
func chaosProgram(t *testing.T) Program {
	return func(tk *Task) {
		buf := tk.Malloc(4096)
		out := tk.Malloc(4096)
		tk.Busy(200 * 1000) // 200us of host compute per step
		b := tk.Bytes(buf, 4096)
		for i := range b {
			b[i] = byte(i + tk.Rank())
		}
		peer := tk.Rank() ^ 1
		tk.Sendrecv(buf, 4096, mpi.Byte, peer, 1, out, 4096, mpi.Byte, peer, 1)
		ob := tk.Bytes(out, 4096)
		for i := range ob {
			if ob[i] != byte(i+peer) {
				t.Errorf("rank %d: chaos corrupted payload at %d", tk.Rank(), i)
				break
			}
		}
		tk.Allreduce(buf, out, 16, mpi.Float64, mpi.Sum)
	}
}

// TestChaosRunDeterministic: the same seed and fault spec produce a
// byte-identical run — same virtual elapsed time, same telemetry snapshot —
// every time, and the plan genuinely injects faults (the injected counter
// ticks and the run is slower than a healthy one).
func TestChaosRunDeterministic(t *testing.T) {
	spec, err := fault.ParseSpec("7:degrade=*:4,stall=0:0.5:200us,straggle=1:1.8,flap=0:3ms:300us")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: topo.Titan(2), Mode: IMPACC, Backed: true, JitterPct: 1, Seed: 2016}
	healthy := mustRun(t, cfg, chaosProgram(t))

	cfg.Chaos = spec
	run := func() (elapsed int64, snap []byte) {
		rep := mustRun(t, cfg, chaosProgram(t))
		var buf bytes.Buffer
		if err := rep.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return int64(rep.Elapsed), buf.Bytes()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Fatalf("chaos runs diverged: %d vs %d ns", e1, e2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("chaos runs produced different telemetry snapshots")
	}
	if e1 <= int64(healthy.Elapsed) {
		t.Fatalf("chaos run (%d ns) not slower than healthy (%d ns)", e1, int64(healthy.Elapsed))
	}
	if !strings.Contains(string(s1), fault.InjectedTotal) {
		t.Fatalf("snapshot records no %s counter", fault.InjectedTotal)
	}
	if strings.Contains(string(healthy.metricsJSON(t)), fault.InjectedTotal) {
		t.Fatal("healthy run leaked chaos counter families into its snapshot")
	}
}

// metricsJSON renders a report's telemetry snapshot for comparisons.
func (r *Report) metricsJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runTaskFailure executes prog under the chaos spec, if any, and returns
// the runtime and the run's error, which must be the *RunError of task
// rank with no *sim.PanicError in its chain.
func runTaskFailure(t *testing.T, cfg Config, chaos string, rank int, prog Program) (*Runtime, error) {
	t.Helper()
	if chaos != "" {
		spec, err := fault.ParseSpec(chaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = spec
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Execute(prog)
	var re *RunError
	if !errors.As(err, &re) || re.Rank != rank {
		t.Fatalf("err = %v, want the *RunError of task %d", err, rank)
	}
	if !strings.HasPrefix(err.Error(), "task ") {
		t.Fatalf("err = %q, want a task-prefixed error", err)
	}
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("err = %v: a *sim.PanicError is in the chain", err)
	}
	return rt, err
}

// TestQueuedCopyFailureFailsTask: a queued copy that runs out of copy
// retries fails the task owning the queue with a typed error that names
// the task's device context, as a synchronous copy failure would.
func TestQueuedCopyFailureFailsTask(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: Legacy, FlightRing: 8}
	rt, err := runTaskFailure(t, cfg, "1:copyfail=*:1", 0, func(tk *Task) {
		buf := tk.Malloc(4096)
		tk.DataEnter(buf, 4096, acc.Create)
		tk.UpdateDevice(buf, 4096, 1)
		tk.ACCWait(1)
	})
	var se *device.StreamError
	if !errors.As(err, &se) || se.Queue != 1 || se.Ctx != rt.tasks[0].ctx {
		t.Fatalf("err = %v, want a queue-1 *device.StreamError on task 0's context", err)
	}
	if !strings.Contains(err.Error(), "copy failed after") {
		t.Fatalf("err = %q, want the copy failure", err)
	}
	// The flight recorder files the run under the same task error.
	st := rt.Stall()
	if st == nil || st.Reason != "task-error" || st.Error != err.Error() {
		t.Fatalf("stall = %+v, want reason task-error naming %q", st, err)
	}
}

// TestQueuedRecvTimeoutFailsTask: a unified-queue receive that times out
// fails its task with the *msg.NetError of the receive.
func TestQueuedRecvTimeoutFailsTask(t *testing.T) {
	cfg := Config{System: topo.Titan(2), Mode: IMPACC}
	_, err := runTaskFailure(t, cfg, "1:timeout=50us", 0, func(tk *Task) {
		if tk.Rank() != 0 {
			return
		}
		buf := tk.Malloc(64)
		tk.DataEnter(buf, 64, acc.Create)
		tk.Irecv(buf, 8, mpi.Float64, 1, 0, OnDevice(), Async(1))
		tk.ACCWait(1)
	})
	var ne *msg.NetError
	if !errors.As(err, &ne) || ne.Op != "recv" || ne.Src != 1 || ne.Dst != 0 {
		t.Fatalf("err = %v, want the receive's *msg.NetError", err)
	}
}

// TestQueuedKernelFailFailsTask: a kernel body that fails its task on the
// stream's process ends the run with that task's own error.
func TestQueuedKernelFailFailsTask(t *testing.T) {
	boom := errors.New("kernel boom")
	cfg := Config{System: topo.Titan(2), Mode: IMPACC}
	_, err := runTaskFailure(t, cfg, "", 1, func(tk *Task) {
		if tk.Rank() != 1 {
			return
		}
		tk.Kernels(device.KernelSpec{Name: "k", FLOPs: 1e6, Body: func() { tk.Fail(boom) }}, 1)
		tk.ACCWait(1)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the kernel's error", err)
	}
}

// TestSyncCopyFailureFilesTaskError: a synchronous copy that runs out of
// copy retries fails its task in the task's own process; the peer left
// waiting for it deadlocks, and the flight recorder files the run under the
// task error the run returns, not under the deadlock it caused.
func TestSyncCopyFailureFilesTaskError(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: Legacy, FlightRing: 8}
	rt, err := runTaskFailure(t, cfg, "1:copyfail=*:1", 0, func(tk *Task) {
		buf := tk.Malloc(4096)
		switch tk.Rank() {
		case 0:
			tk.DataEnter(buf, 4096, acc.Create)
			tk.UpdateDevice(buf, 4096, -1)
			tk.Send(buf, 8, mpi.Float64, 1, 0)
		case 1:
			tk.Recv(buf, 8, mpi.Float64, 0, 0)
		}
	})
	if !strings.Contains(err.Error(), "copy failed after") {
		t.Fatalf("err = %q, want the copy failure", err)
	}
	if st := rt.Stall(); st == nil || st.Reason != "task-error" || st.Error != err.Error() {
		t.Fatalf("stall = %+v, want reason task-error naming %q", st, err)
	}
}

// TestSyncRecvTimeoutFilesTaskError: a blocking internode receive that
// times out fails its task; a same-node peer waiting on that task
// deadlocks, and the stall dump names the timeout.
func TestSyncRecvTimeoutFilesTaskError(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, FlightRing: 8}
	rt, err := runTaskFailure(t, cfg, "1:timeout=50us", 0, func(tk *Task) {
		buf := tk.Malloc(64)
		switch tk.Rank() {
		case 0:
			tk.Recv(buf, 8, mpi.Float64, tk.Size()-1, 0) // on the other node
		case 1:
			tk.Recv(buf, 8, mpi.Float64, 0, 0) // on rank 0's node
		}
	})
	var ne *msg.NetError
	if !errors.As(err, &ne) || ne.Op != "recv" || ne.Dst != 0 {
		t.Fatalf("err = %v, want rank 0's receive *msg.NetError", err)
	}
	if st := rt.Stall(); st == nil || st.Reason != "task-error" || st.Error != err.Error() {
		t.Fatalf("stall = %+v, want reason task-error naming %q", st, err)
	}
}
