package apps

import (
	"impacc/internal/acc"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/xmem"
)

// JacobiConfig parameterizes the 2-D Jacobi iteration (paper §4.2): an N×N
// mesh partitioned in one dimension across the tasks, with halo rows
// exchanged between neighbours each sweep. Under IMPACC the halo exchange
// runs device-to-device (Figure 14); the baseline stages through host
// buffers.
type JacobiConfig struct {
	N      int // mesh edge
	Iters  int
	Style  Style
	Verify bool
}

const (
	tagUp   = 20 // to rank-1 (my first row becomes their bottom ghost)
	tagDown = 21 // to rank+1
)

// Jacobi returns the benchmark program.
func Jacobi(cfg JacobiConfig) core.Program {
	return func(t *core.Task) {
		n, p := cfg.N, t.Size()
		if n%p != 0 {
			t.Failf("jacobi: N=%d not divisible by %d tasks", n, p)
		}
		rows := n / p
		w := n                              // row width
		stride := int64(w) * 8              // bytes per row
		bufRows := rows + 2                 // with ghost rows
		bufBytes := int64(bufRows) * stride // one grid
		up, down := t.Rank()-1, t.Rank()+1  // neighbours
		haveUp, haveDown := up >= 0, down < p

		cur := t.Malloc(bufBytes)
		nxt := t.Malloc(bufBytes)
		initJacobi(t, cur, nxt, rows, w)

		dcur := t.DataEnter(cur, bufBytes, acc.Copyin)
		dnxt := t.DataEnter(nxt, bufBytes, acc.Copyin)
		_, _ = dcur, dnxt

		// The two sweeps, cur to nxt and back, are built once: iteration
		// it runs specs[it%2].
		specs := [2]device.KernelSpec{stencilSpec(t, cur, nxt, rows, w), stencilSpec(t, nxt, cur, rows, w)}
		var reqs [4]core.Request
		for it := 0; it < cfg.Iters; it++ {
			spec := specs[it%2]
			// Row offsets within the current grid.
			firstOwned := cur + xmem.Addr(stride)            // row 1
			lastOwned := cur + xmem.Addr(int64(rows)*stride) // row rows
			topGhost := cur                                  // row 0
			botGhost := cur + xmem.Addr(int64(rows+1)*stride)

			switch cfg.Style {
			case StyleSync:
				// Fig 4 (a): stage halos through the host synchronously.
				if haveUp {
					t.UpdateHost(firstOwned, stride, -1)
				}
				if haveDown {
					t.UpdateHost(lastOwned, stride, -1)
				}
				if haveUp {
					t.Send(firstOwned, w, mpi.Float64, up, tagUp)
					t.Recv(topGhost, w, mpi.Float64, up, tagDown)
				}
				if haveDown {
					t.Recv(botGhost, w, mpi.Float64, down, tagUp)
					t.Send(lastOwned, w, mpi.Float64, down, tagDown)
				}
				if haveUp {
					t.UpdateDevice(topGhost, stride, -1)
				}
				if haveDown {
					t.UpdateDevice(botGhost, stride, -1)
				}
				t.Kernels(spec, -1)
			case StyleAsync:
				// Fig 4 (b): async staging with explicit sync points.
				if haveUp {
					t.UpdateHost(firstOwned, stride, 1)
				}
				if haveDown {
					t.UpdateHost(lastOwned, stride, 1)
				}
				t.ACCWait(1)
				// A missing neighbour leaves its pair null, which Wait skips.
				if haveUp {
					reqs[0] = t.Isend(firstOwned, w, mpi.Float64, up, tagUp)
					reqs[1] = t.Irecv(topGhost, w, mpi.Float64, up, tagDown)
				}
				if haveDown {
					reqs[2] = t.Isend(lastOwned, w, mpi.Float64, down, tagDown)
					reqs[3] = t.Irecv(botGhost, w, mpi.Float64, down, tagUp)
				}
				t.Wait(reqs[:]...)
				if haveUp {
					t.UpdateDevice(topGhost, stride, 1)
				}
				if haveDown {
					t.UpdateDevice(botGhost, stride, 1)
				}
				t.Kernels(spec, 1)
				t.ACCWait(1)
			default:
				// Fig 4 (c): device-resident halos on the unified queue —
				// the intra-node exchanges become direct DtoD copies.
				if haveUp {
					t.Isend(firstOwned, w, mpi.Float64, up, tagUp, core.OnDevice(), core.Async(1))
					t.Irecv(topGhost, w, mpi.Float64, up, tagDown, core.OnDevice(), core.Async(1))
				}
				if haveDown {
					t.Isend(lastOwned, w, mpi.Float64, down, tagDown, core.OnDevice(), core.Async(1))
					t.Irecv(botGhost, w, mpi.Float64, down, tagUp, core.OnDevice(), core.Async(1))
				}
				t.Kernels(spec, 1)
			}
			cur, nxt = nxt, cur
		}
		if cfg.Style == StyleUnified {
			t.ACCWait(1)
		}
		t.DataExit(nxt, acc.Delete)
		t.DataExit(cur, acc.Copyout)
		if cfg.Verify {
			verifyJacobi(t, cfg, cur, rows, w)
		}
	}
}

// initJacobi sets boundary condition: global top row = 1, rest 0, on both
// grids (host side).
func initJacobi(t *core.Task, cur, nxt xmem.Addr, rows, w int) {
	for _, g := range []xmem.Addr{cur, nxt} {
		v := t.Floats(g, (rows+2)*w)
		if v == nil {
			return
		}
		for i := range v {
			v[i] = 0
		}
		if t.Rank() == 0 {
			// Global boundary lives in the top ghost row, fixed at 1.
			for j := 0; j < w; j++ {
				v[j] = 1
			}
		}
	}
}

// stencilSpec builds the 5-point sweep kernel: read cur, write nxt over the
// owned rows. Memory-bound on every target device.
func stencilSpec(t *core.Task, cur, nxt xmem.Addr, rows, w int) device.KernelSpec {
	return device.KernelSpec{
		Name:  "jacobi",
		FLOPs: 4 * float64(rows) * float64(w),
		Bytes: 2 * 8 * float64(rows) * float64(w), // one read + one write stream
		Kind:  device.KindMemory,
		Gangs: rows, Workers: 4, Vector: 128,
		Body: func() {
			cv := t.Floats(t.DevicePtr(cur), (rows+2)*w)
			nv := t.Floats(t.DevicePtr(nxt), (rows+2)*w)
			if cv == nil || nv == nil {
				return
			}
			for i := 1; i <= rows; i++ {
				for j := 0; j < w; j++ {
					l, r := j-1, j+1
					var left, right float64
					if l >= 0 {
						left = cv[i*w+l]
					}
					if r < w {
						right = cv[i*w+r]
					}
					nv[i*w+j] = 0.25 * (cv[(i-1)*w+j] + cv[(i+1)*w+j] + left + right)
				}
			}
		},
	}
}

// verifyJacobi recomputes the whole iteration serially on rank 0 and
// compares this task's owned rows.
func verifyJacobi(t *core.Task, cfg JacobiConfig, final xmem.Addr, rows, w int) {
	got := t.Floats(final, (rows+2)*w)
	if got == nil {
		return
	}
	n := cfg.N
	ref := make([]float64, (n+2)*w)
	tmp := make([]float64, (n+2)*w)
	for j := 0; j < w; j++ {
		ref[j] = 1
		tmp[j] = 1
	}
	for it := 0; it < cfg.Iters; it++ {
		for i := 1; i <= n; i++ {
			for j := 0; j < w; j++ {
				var left, right float64
				if j > 0 {
					left = ref[i*w+j-1]
				}
				if j < w-1 {
					right = ref[i*w+j+1]
				}
				tmp[i*w+j] = 0.25 * (ref[(i-1)*w+j] + ref[(i+1)*w+j] + left + right)
			}
		}
		ref, tmp = tmp, ref
	}
	base := t.Rank() * rows
	for i := 1; i <= rows; i++ {
		for j := 0; j < w; j++ {
			want := ref[(base+i)*w+j]
			if err := checkClose("jacobi cell", got[i*w+j], want, 1e-12); err != nil {
				t.Failf("rank %d row %d col %d: %v", t.Rank(), i, j, err)
			}
		}
	}
}
