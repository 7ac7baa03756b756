package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impacc/internal/acc"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// mpiSurface is the MPI API that Task (on MPI_COMM_WORLD) and Comm share,
// so one program drives both sets of entry points.
type mpiSurface interface {
	Rank() int
	Size() int
	Send(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt)
	Recv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt)
	Isend(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) Request
	Irecv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) Request
	Sendrecv(sendAddr xmem.Addr, sendCount int, sdt mpi.Datatype, dst, sendTag int,
		recvAddr xmem.Addr, recvCount int, rdt mpi.Datatype, src, recvTag int, opts ...Opt)
	Iprobe(src, tag int, dt mpi.Datatype) (bool, int)
	Probe(src, tag int, dt mpi.Datatype) int
	Barrier()
	Bcast(addr xmem.Addr, count int, dt mpi.Datatype, root int, opts ...Opt)
	Reduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, root int, opts ...Opt)
	Allreduce(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt)
	Gather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt)
	Scatter(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, root int, opts ...Opt)
	Allgather(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt)
	Alltoall(sendAddr xmem.Addr, count int, dt mpi.Datatype, recvAddr xmem.Addr, opts ...Opt)
	ReduceScatter(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt)
	Scan(sendAddr, recvAddr xmem.Addr, count int, dt mpi.Datatype, op mpi.Op, opts ...Opt)
	Gatherv(sendAddr xmem.Addr, sendCount int, dt mpi.Datatype,
		recvAddr xmem.Addr, counts, displs []int, root int, opts ...Opt)
	Scatterv(sendAddr xmem.Addr, counts, displs []int, dt mpi.Datatype,
		recvAddr xmem.Addr, recvCount int, root int, opts ...Opt)
}

var (
	_ mpiSurface = (*Task)(nil)
	_ mpiSurface = (*Comm)(nil)
)

// bigBcastCount is a Float64 broadcast of 16 MB: at least 4 MB per node
// leader on four nodes, so it takes the scatter + ring allgather path.
const bigBcastCount = 2 << 20

// exerciseMPI calls every entry point of c once or more: point-to-point
// (blocking pairs, a non-blocking ring, a wildcard Waitany, Sendrecv,
// Probe and Iprobe), every collective (Bcast at a tree size and at the
// scatter-allgather size, and at non-zero roots), and, under IMPACC, the
// Async(q) and OnDevice forms.
func exerciseMPI(tk *Task, c mpiSurface, impacc bool) {
	const f = mpi.Float64
	n, me := c.Size(), c.Rank()
	right, left := (me+1)%n, (me-1+n)%n
	a, b := tk.Malloc(8<<10), tk.Malloc(8<<10)

	// Blocking pairs: even ranks send first.
	if me%2 == 0 && me+1 < n {
		c.Send(a, 64, f, me+1, 1)
		c.Recv(b, 64, f, me+1, 1)
	} else if me%2 == 1 {
		c.Recv(b, 64, f, me-1, 1)
		c.Send(a, 64, f, me-1, 1, ReadOnly())
	}
	rr := c.Irecv(b, 128, f, left, 2)
	sr := c.Isend(a, 128, f, right, 2)
	tk.Wait(rr, sr)
	reqs := []Request{c.Irecv(b, 32, f, AnySource, 3), c.Isend(a, 32, f, right, 3)}
	for range reqs {
		reqs[tk.Waitany(reqs...)] = Request{}
	}
	c.Sendrecv(a, 16, f, right, 4, b, 16, f, left, 4)
	sr = c.Isend(a, 24, f, right, 5)
	got := c.Probe(left, 5, f)
	ok, cnt := c.Iprobe(AnySource, 5, f)
	if got != 24 || !ok || cnt != 24 {
		tk.Failf("probe saw %d, iprobe %v %d; want 24", got, ok, cnt)
	}
	c.Recv(b, got, f, left, 5)
	tk.Wait(sr)

	c.Barrier()
	c.Bcast(a, 512, f, 0, ReadOnly())
	c.Bcast(a, 64, f, n-1)
	big := tk.Malloc(8 * bigBcastCount)
	c.Bcast(big, bigBcastCount, f, n/2)
	c.Reduce(a, b, 64, f, mpi.Sum, n-1)
	c.Allreduce(a, b, 64, f, mpi.Max)
	all, all2 := tk.Malloc(int64(8*(16*n+64))), tk.Malloc(int64(8*(16*n+64)))
	c.Gather(a, 16, f, all, n-1)
	c.Scatter(all, 16, f, b, 0)
	c.Allgather(a, 8, f, all)
	c.Alltoall(all, 4, f, all2)
	c.ReduceScatter(all, b, 8, f, mpi.Sum)
	c.Scan(a, b, 32, f, mpi.Sum)
	counts, displs := make([]int, n), make([]int, n)
	total := 0
	for r := range counts {
		counts[r] = r%3 + 1
		displs[r] = total + r%2 // odd ranks leave a one-element gap
		total = displs[r] + counts[r]
	}
	c.Gatherv(a, counts[me], f, all, counts, displs, 1%n)
	c.Scatterv(all, counts, displs, f, b, counts[me], 0)

	if !impacc {
		return
	}
	tk.DataEnter(a, 8<<10, acc.Copyin)
	tk.DataEnter(b, 8<<10, acc.Create)
	r1 := c.Irecv(b, 64, f, left, 7, Async(1), OnDevice())
	s1 := c.Isend(a, 64, f, right, 7, Async(1), OnDevice(), ReadOnly())
	c.Send(a, 32, f, right, 8, Async(2))
	c.Recv(b, 32, f, left, 8, Async(2))
	tk.ACCWait(1)
	tk.ACCWait(2)
	tk.Wait(r1, s1)
	c.Sendrecv(a, 16, f, right, 9, b, 16, f, left, 9, OnDevice())
	tk.DataExit(a, acc.Delete)
	tk.DataExit(b, acc.Delete)
}

// surfaceProgram runs exerciseMPI through the Task entry points and then
// through a Split communicator (evens and odds, keys reversed), plus the
// Task-only RecvStatus.
func surfaceProgram(tk *Task) {
	impacc := tk.rt.Cfg.Mode == IMPACC
	exerciseMPI(tk, tk, impacc)
	n, me := tk.Size(), tk.Rank()
	buf := tk.Malloc(64)
	sr := tk.Isend(buf, 8, mpi.Float64, (me+1)%n, 6)
	st := tk.RecvStatus(buf, 8, mpi.Float64, AnySource, 6)
	if st.Source != (me-1+n)%n || st.Tag != 6 || st.Count != 8 {
		tk.Failf("RecvStatus = %+v", st)
	}
	tk.Wait(sr)
	exerciseMPI(tk, tk.World().Split(me%2, -me), impacc)
}

// TestMPISurfaceGolden pins the observable output of every Task and Comm
// MPI entry point: the report JSON (metrics and profile included) and the
// trace stream of one unbacked program on PSG in both modes and on four
// Beacon nodes, and the error texts of rejected calls. Run with -update to
// rewrite the files under testdata/mpi_surface/.
func TestMPISurfaceGolden(t *testing.T) {
	dir := filepath.Join("testdata", "mpi_surface")
	runs := []struct {
		name string
		cfg  Config
	}{
		{"psg-impacc", Config{System: topo.PSG(), Mode: IMPACC, Seed: 2016}},
		{"psg-legacy", Config{System: topo.PSG(), Mode: Legacy, Seed: 2016}},
		{"beacon4-impacc", Config{System: topo.Beacon(4), Mode: IMPACC, Seed: 2016}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg
			cfg.Trace = NewTracer()
			rep := mustRun(t, cfg, surfaceProgram)
			report, err := json.MarshalIndent(rep, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join(dir, r.name+".report.json"), append(report, '\n'))
			var stream bytes.Buffer
			if err := cfg.Trace.WriteStream(&stream, sim.Time(rep.Elapsed)); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join(dir, r.name+".stream"), stream.Bytes())
		})
	}

	const f = mpi.Float64
	errCases := []struct {
		name string
		mode Mode
		prog Program
	}{
		{"task-send-rank", IMPACC, func(tk *Task) { tk.Send(tk.Malloc(8), 1, f, 5, 0) }},
		{"world-send-rank", IMPACC, func(tk *Task) { tk.World().Send(tk.Malloc(8), 1, f, 5, 0) }},
		{"gatherv-bad-counts", IMPACC, func(tk *Task) {
			buf := tk.Malloc(64)
			tk.Gatherv(buf, 1, f, buf, []int{1}, []int{0}, 0)
		}},
		{"legacy-async-isend", Legacy, func(tk *Task) { tk.Isend(tk.Malloc(8), 1, f, 1-tk.Rank(), 0, Async(1)) }},
		{"collective-async", IMPACC, func(tk *Task) { tk.Bcast(tk.Malloc(8), 1, f, 0, Async(1)) }},
	}
	var errs strings.Builder
	for _, c := range errCases {
		_, err := Run(Config{System: topo.PSG(), Mode: c.mode, MaxTasks: 2}, c.prog)
		fmt.Fprintf(&errs, "%s: %v\n", c.name, err)
	}
	checkGolden(t, filepath.Join(dir, "errors.txt"), []byte(errs.String()))
}

// checkGolden compares got with the golden file at path, rewriting it first
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden file (%d vs %d bytes; run with -update to regenerate)",
			path, len(got), len(want))
	}
}
