package apps

import (
	"impacc/internal/acc"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/xmem"
)

// Jacobi2D is the two-dimensionally partitioned variant of the paper's
// Jacobi benchmark — the natural extension of §4.2's one-dimensional
// partitioning once communicators exist: tasks form a pr × pc grid; each
// owns an (N/pr) × (N/pc) tile with a ghost ring. Row halos are contiguous;
// column halos are packed into contiguous device buffers (the standard
// pack/exchange/unpack pattern), and the exchanges run over row and column
// communicators created with MPI_Comm_split.
type Jacobi2DConfig struct {
	N      int
	Iters  int
	Style  Style // StyleSync stages through host; StyleUnified is device-direct
	Verify bool  //impacc:allow-unused only tests set it; it checks the numerics against a host reference
}

const (
	tag2dV = 40 // vertical (row-halo) exchange
	tag2dH = 41 // horizontal (column-halo) exchange
)

// gridShape factors n into the most square pr x pc grid.
func gridShape(n int) (pr, pc int) {
	pr = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			pr = f
		}
	}
	return pr, n / pr
}

// Jacobi2D returns the benchmark program.
func Jacobi2D(cfg Jacobi2DConfig) core.Program {
	return func(t *core.Task) {
		n := cfg.N
		pr, pc := gridShape(t.Size())
		if n%pr != 0 || n%pc != 0 {
			t.Failf("jacobi2d: N=%d not divisible by %dx%d grid", n, pr, pc)
		}
		rows, cols := n/pr, n/pc
		myR, myC := t.Rank()/pc, t.Rank()%pc

		// Row communicator: tasks sharing a tile-row (left/right
		// neighbours); column communicator: sharing a tile-column.
		rowComm := t.World().Split(myR, myC)
		colComm := t.World().Split(myC, myR)

		w := cols + 2 // padded width
		stride := int64(w) * 8
		bufBytes := int64(rows+2) * stride
		cur := t.Malloc(bufBytes)
		nxt := t.Malloc(bufBytes)
		init2D(t, cur, nxt, rows, w, myR)

		// Column halo pack buffers (contiguous), one per side.
		colBytes := int64(rows) * 8
		sendL, sendR := t.Malloc(colBytes), t.Malloc(colBytes)
		recvL, recvR := t.Malloc(colBytes), t.Malloc(colBytes)

		t.DataEnter(cur, bufBytes, acc.Copyin)
		t.DataEnter(nxt, bufBytes, acc.Copyin)
		for _, b := range []xmem.Addr{sendL, sendR, recvL, recvR} {
			t.DataEnter(b, colBytes, acc.Create)
		}

		up, down := myR-1, myR+1
		left, right := myC-1, myC+1

		for it := 0; it < cfg.Iters; it++ {
			grid := cur
			packCols := colPackSpec(t, grid, sendL, sendR, rows, w)
			unpackCols := colUnpackSpec(t, grid, recvL, recvR, rows, w, left >= 0, right < pc)

			// --- Vertical halos over the column communicator (rows are
			// contiguous slices of the tile).
			firstRow := grid + xmem.Addr(stride+8)            // row 1, col 1
			lastRow := grid + xmem.Addr(int64(rows)*stride+8) // row rows
			topGhost := grid + xmem.Addr(8)                   // row 0
			botGhost := grid + xmem.Addr(int64(rows+1)*stride+8)
			// --- Horizontal halos: pack on device, exchange, unpack.
			t.Kernels(packCols, -1)

			exchange := func(buf xmem.Addr, count int, comm *core.Comm, peer, tag int, recv xmem.Addr) []core.Request {
				if peer < 0 {
					return nil
				}
				var opts []core.Opt
				if cfg.Style == StyleUnified {
					opts = append(opts, core.OnDevice())
				}
				return []core.Request{
					comm.Isend(buf, count, mpi.Float64, peer, tag, opts...),
					comm.Irecv(recv, count, mpi.Float64, peer, tag, opts...),
				}
			}
			if cfg.Style != StyleUnified {
				// Stage halos through the host.
				if up >= 0 {
					t.UpdateHost(firstRow, int64(cols)*8, -1)
				}
				if down < pr {
					t.UpdateHost(lastRow, int64(cols)*8, -1)
				}
				t.UpdateHost(sendL, colBytes, -1)
				t.UpdateHost(sendR, colBytes, -1)
			}
			var reqs []core.Request
			if up >= 0 {
				reqs = append(reqs, exchange(firstRow, cols, colComm, up, tag2dV, topGhost)...)
			}
			if down < pr {
				reqs = append(reqs, exchange(lastRow, cols, colComm, down, tag2dV, botGhost)...)
			}
			if left >= 0 {
				reqs = append(reqs, exchange(sendL, rows, rowComm, left, tag2dH, recvL)...)
			}
			if right < pc {
				reqs = append(reqs, exchange(sendR, rows, rowComm, right, tag2dH, recvR)...)
			}
			t.Wait(reqs...)
			if cfg.Style != StyleUnified {
				if up >= 0 {
					t.UpdateDevice(topGhost, int64(cols)*8, -1)
				}
				if down < pr {
					t.UpdateDevice(botGhost, int64(cols)*8, -1)
				}
				t.UpdateDevice(recvL, colBytes, -1)
				t.UpdateDevice(recvR, colBytes, -1)
			}
			t.Kernels(unpackCols, -1)
			t.Kernels(sweep2DSpec(t, cur, nxt, rows, cols, w), -1)
			cur, nxt = nxt, cur
		}
		t.DataExit(nxt, acc.Delete)
		t.DataExit(cur, acc.Copyout)
		for _, b := range []xmem.Addr{sendL, sendR, recvL, recvR} {
			t.DataExit(b, acc.Delete)
		}
		if cfg.Verify {
			verify2D(t, cfg, cur, rows, cols, w, myR, myC)
		}
	}
}

// init2D zeroes both grids and fixes the global top boundary at 1 for
// top-row tiles.
func init2D(t *core.Task, cur, nxt xmem.Addr, rows, w, myR int) {
	for _, g := range []xmem.Addr{cur, nxt} {
		v := t.Floats(g, (rows+2)*w)
		if v == nil {
			return
		}
		for i := range v {
			v[i] = 0
		}
		if myR == 0 {
			for j := 0; j < w; j++ {
				v[j] = 1
			}
		}
	}
}

// colPackSpec packs the leftmost and rightmost owned columns into the
// contiguous send buffers, on the device.
func colPackSpec(t *core.Task, grid, sendL, sendR xmem.Addr, rows, w int) device.KernelSpec {
	return device.KernelSpec{
		Name: "pack-cols", Bytes: 4 * 8 * float64(rows), Kind: device.KindMemory,
		Body: func() {
			g := t.Floats(t.DevicePtr(grid), (rows+2)*w)
			l := t.Floats(t.DevicePtr(sendL), rows)
			r := t.Floats(t.DevicePtr(sendR), rows)
			if g == nil {
				return
			}
			for i := 0; i < rows; i++ {
				l[i] = g[(i+1)*w+1]
				r[i] = g[(i+1)*w+w-2]
			}
		},
	}
}

// colUnpackSpec writes received column halos into the ghost columns.
func colUnpackSpec(t *core.Task, grid, recvL, recvR xmem.Addr, rows, w int, haveL, haveR bool) device.KernelSpec {
	return device.KernelSpec{
		Name: "unpack-cols", Bytes: 4 * 8 * float64(rows), Kind: device.KindMemory,
		Body: func() {
			g := t.Floats(t.DevicePtr(grid), (rows+2)*w)
			if g == nil {
				return
			}
			if haveL {
				l := t.Floats(t.DevicePtr(recvL), rows)
				for i := 0; i < rows; i++ {
					g[(i+1)*w] = l[i]
				}
			}
			if haveR {
				r := t.Floats(t.DevicePtr(recvR), rows)
				for i := 0; i < rows; i++ {
					g[(i+1)*w+w-1] = r[i]
				}
			}
		},
	}
}

// sweep2DSpec is the 5-point update over the owned tile.
func sweep2DSpec(t *core.Task, cur, nxt xmem.Addr, rows, cols, w int) device.KernelSpec {
	return device.KernelSpec{
		Name:  "jacobi2d",
		FLOPs: 4 * float64(rows) * float64(cols),
		Bytes: 2 * 8 * float64(rows) * float64(cols),
		Kind:  device.KindMemory,
		Body: func() {
			cv := t.Floats(t.DevicePtr(cur), (rows+2)*w)
			nv := t.Floats(t.DevicePtr(nxt), (rows+2)*w)
			if cv == nil || nv == nil {
				return
			}
			for i := 1; i <= rows; i++ {
				for j := 1; j <= cols; j++ {
					nv[i*w+j] = 0.25 * (cv[(i-1)*w+j] + cv[(i+1)*w+j] + cv[i*w+j-1] + cv[i*w+j+1])
				}
			}
		},
	}
}

// verify2D recomputes the global iteration serially and compares the tile.
func verify2D(t *core.Task, cfg Jacobi2DConfig, final xmem.Addr, rows, cols, w, myR, myC int) {
	got := t.Floats(final, (rows+2)*w)
	if got == nil {
		return
	}
	n := cfg.N
	gw := n + 2
	ref := make([]float64, (n+2)*gw)
	tmp := make([]float64, (n+2)*gw)
	for j := 0; j < gw; j++ {
		ref[j], tmp[j] = 1, 1
	}
	for it := 0; it < cfg.Iters; it++ {
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				tmp[i*gw+j] = 0.25 * (ref[(i-1)*gw+j] + ref[(i+1)*gw+j] + ref[i*gw+j-1] + ref[i*gw+j+1])
			}
		}
		ref, tmp = tmp, ref
	}
	baseR, baseC := myR*rows, myC*cols
	for i := 1; i <= rows; i++ {
		for j := 1; j <= cols; j++ {
			want := ref[(baseR+i)*gw+baseC+j]
			if err := checkClose("jacobi2d cell", got[i*w+j], want, 1e-12); err != nil {
				t.Failf("tile (%d,%d) cell (%d,%d): %v", myR, myC, i, j, err)
			}
		}
	}
}
