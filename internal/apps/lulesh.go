package apps

import (
	"impacc/internal/acc"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/xmem"
)

// LULESHConfig parameterizes the shock-hydrodynamics proxy (paper §4.2):
// tasks form a cubic lattice (their count must be a perfect cube), each
// owning an Edge³ element sub-mesh. Every Lagrange step runs O(Edge³)
// device compute and exchanges O(Edge²) surface elements with face
// neighbours, then agrees on the time increment with an MPI_Allreduce — so
// the computation-to-communication ratio grows with the per-task problem
// size, the weak-scaling knob of Figure 15.
//
// Following the paper ("we run unmodified LULESH 2.0.2 MPI+OpenACC version
// for both MPI+OpenACC and IMPACC, and thus all communications between
// tasks are host-to-host communications"), the same program runs under both
// runtimes: halos stage through host buffers; the runtimes differ only in
// pinning, transport, and handler behaviour.
type LULESHConfig struct {
	Edge   int // elements per task edge (s in "s^3 per task")
	Steps  int
	Verify bool
}

const tagFace = 30

// luleshFlopsPerElem approximates the per-element Lagrange-leapfrog cost of
// one full LULESH time step — roughly 45 kernels covering force
// calculation, element integration, and material updates, ~2.5k flops and
// ~200 bytes of state traffic per element.
const (
	luleshFlopsPerElem = 2500
	luleshBytesPerElem = 200
)

// luInitialEnergy is LULESH's Sedov blast deposit.
const luInitialEnergy = 3.948746e+7

// luFace describes one face-neighbour exchange.
type luFace struct {
	peer      int
	axis, dir int
	sendBuf   xmem.Addr
	recvBuf   xmem.Addr
}

// idx3 maps (x,y,z) to the linear element index of an s^3 grid.
func idx3(x, y, z, s int) int { return z*s*s + y*s + x }

func cubeRoot(n int) int {
	for s := 1; s*s*s <= n; s++ {
		if s*s*s == n {
			return s
		}
	}
	return 0
}

// luFaces computes the face neighbours of rank me in a side^3 lattice.
func luFaces(me, side int) []luFace {
	mz, rem := me/(side*side), me%(side*side)
	my, mx := rem/side, rem%side
	var out []luFace
	add := func(x, y, z, axis, dir int) {
		if x < 0 || y < 0 || z < 0 || x >= side || y >= side || z >= side {
			return
		}
		out = append(out, luFace{peer: z*side*side + y*side + x, axis: axis, dir: dir})
	}
	add(mx-1, my, mz, 0, -1)
	add(mx+1, my, mz, 0, +1)
	add(mx, my-1, mz, 1, -1)
	add(mx, my+1, mz, 1, +1)
	add(mx, my, mz-1, 2, -1)
	add(mx, my, mz+1, 2, +1)
	return out
}

// LULESH returns the proxy program.
func LULESH(cfg LULESHConfig) core.Program {
	return func(t *core.Task) {
		side := cubeRoot(t.Size())
		if side == 0 {
			t.Failf("lulesh: %d tasks is not a perfect cube", t.Size())
		}
		s := cfg.Edge
		elems := s * s * s
		meshBytes := int64(elems) * 8
		faceBytes := int64(s) * int64(s) * 8

		field := t.Malloc(meshBytes)
		luInit(t.Floats(field, elems), t.Rank())
		faces := luFaces(t.Rank(), side)
		for i := range faces {
			faces[i].sendBuf = t.Malloc(faceBytes)
			faces[i].recvBuf = t.Malloc(faceBytes)
		}
		dtLocal := t.Malloc(8)
		dtGlobal := t.Malloc(8)

		t.DataEnter(field, meshBytes, acc.Copyin)
		for _, f := range faces {
			t.DataEnter(f.sendBuf, faceBytes, acc.Create)
			t.DataEnter(f.recvBuf, faceBytes, acc.Create)
		}
		relax := device.KernelSpec{
			Name:  "lagrange-leapfrog",
			FLOPs: float64(elems) * luleshFlopsPerElem,
			Bytes: luleshBytesPerElem * float64(elems),
			Kind:  device.KindMixed,
			Gangs: s * s, Workers: 4, Vector: 64,
			Body: func() {
				if v := t.Floats(t.DevicePtr(field), elems); v != nil {
					relax3D(v, s)
				}
			},
		}
		surf := float64(len(faces)) * float64(s*s) * 8
		pack := device.KernelSpec{
			Name: "pack-faces", Bytes: 2 * surf, Kind: device.KindMemory,
			Gangs: len(faces), Workers: 4, Vector: 64,
			Body: func() {
				fv := t.Floats(t.DevicePtr(field), elems)
				for _, f := range faces {
					packPlane(fv, t.Floats(t.DevicePtr(f.sendBuf), s*s), f, s)
				}
			},
		}
		unpack := device.KernelSpec{
			Name: "unpack-faces", Bytes: 3 * surf, Kind: device.KindMemory,
			Gangs: len(faces), Workers: 4, Vector: 64,
			Body: func() {
				fv := t.Floats(t.DevicePtr(field), elems)
				for _, f := range faces {
					unpackPlane(fv, t.Floats(t.DevicePtr(f.recvBuf), s*s), f, s)
				}
			},
		}

		for step := 0; step < cfg.Steps; step++ {
			t.Kernels(relax, -1)
			// Surface exchange: pack faces into contiguous buffers on the
			// device, move only the packed surfaces over PCIe, exchange
			// host-to-host (LULESH's CommSend/CommRecv pattern), unpack.
			t.Kernels(pack, -1)
			for _, f := range faces {
				t.UpdateHost(f.sendBuf, faceBytes, -1)
			}
			var reqs []core.Request
			for _, f := range faces {
				reqs = append(reqs,
					t.Isend(f.sendBuf, s*s, mpi.Float64, f.peer, tagFace),
					t.Irecv(f.recvBuf, s*s, mpi.Float64, f.peer, tagFace))
			}
			t.Wait(reqs...)
			for _, f := range faces {
				t.UpdateDevice(f.recvBuf, faceBytes, -1)
			}
			t.Kernels(unpack, -1)
			// Host-side time-constraint work and the dt reduction.
			t.Compute(float64(elems) * 4)
			if v := t.Floats(dtLocal, 1); v != nil {
				v[0] = 1e-3 / float64(step+1+t.Rank()%3)
			}
			t.Allreduce(dtLocal, dtGlobal, 1, mpi.Float64, mpi.Min)
		}
		for _, f := range faces {
			t.DataExit(f.sendBuf, acc.Delete)
			t.DataExit(f.recvBuf, acc.Delete)
		}
		t.DataExit(field, acc.Copyout)
		if cfg.Verify {
			verifyLULESH(t, field, cfg, side)
		}
	}
}

// luInit deposits the initial blast energy at task 0's origin corner.
func luInit(v []float64, rank int) {
	if v == nil {
		return
	}
	for i := range v {
		v[i] = 0
	}
	if rank == 0 {
		v[0] = luInitialEnergy
	}
}

// relax3D is one diffusion-flavoured sweep standing in for the hydro
// update: each element averages with its in-cube neighbours.
func relax3D(v []float64, s int) {
	out := make([]float64, len(v))
	dirs := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for z := 0; z < s; z++ {
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				i := idx3(x, y, z, s)
				sum, cnt := v[i], 1.0
				for _, d := range dirs {
					nx, ny, nz := x+d[0], y+d[1], z+d[2]
					if nx < 0 || ny < 0 || nz < 0 || nx >= s || ny >= s || nz >= s {
						continue
					}
					sum += v[idx3(nx, ny, nz, s)]
					cnt++
				}
				out[i] = sum / cnt
			}
		}
	}
	copy(v, out)
}

// planeIndex returns the element index of cell (a,b) on the face plane.
func planeIndex(f luFace, a, b, s int) int {
	plane := 0
	if f.dir > 0 {
		plane = s - 1
	}
	switch f.axis {
	case 0:
		return idx3(plane, a, b, s)
	case 1:
		return idx3(a, plane, b, s)
	default:
		return idx3(a, b, plane, s)
	}
}

// packPlane copies a boundary plane into a send buffer.
func packPlane(v, buf []float64, f luFace, s int) {
	if v == nil || buf == nil {
		return
	}
	k := 0
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			buf[k] = v[planeIndex(f, a, b, s)]
			k++
		}
	}
}

// unpackPlane folds a received plane into the boundary elements with a
// symmetric average.
func unpackPlane(v, buf []float64, f luFace, s int) {
	if v == nil || buf == nil {
		return
	}
	k := 0
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			i := planeIndex(f, a, b, s)
			v[i] = 0.5 * (v[i] + buf[k])
			k++
		}
	}
}

// verifyLULESH replays the entire distributed scheme serially (all task
// grids in one place) and compares this task's final field bit-for-bit.
func verifyLULESH(t *core.Task, field xmem.Addr, cfg LULESHConfig, side int) {
	got := t.Floats(field, cfg.Edge*cfg.Edge*cfg.Edge)
	if got == nil {
		return
	}
	s := cfg.Edge
	p := side * side * side
	grids := make([][]float64, p)
	for r := range grids {
		grids[r] = make([]float64, s*s*s)
		luInit(grids[r], r)
	}
	for step := 0; step < cfg.Steps; step++ {
		for r := range grids {
			relax3D(grids[r], s)
		}
		// Exchange: snapshot planes first, then fold in.
		type pl struct {
			r   int
			f   luFace
			buf []float64
		}
		var planes []pl
		for r := range grids {
			for _, f := range luFaces(r, side) {
				buf := make([]float64, s*s)
				// The data I receive is the peer's mirrored plane.
				mirror := luFace{axis: f.axis, dir: -f.dir}
				packPlane(grids[f.peer], buf, mirror, s)
				planes = append(planes, pl{r, f, buf})
			}
		}
		for _, q := range planes {
			unpackPlane(grids[q.r], q.buf, q.f, s)
		}
	}
	want := grids[t.Rank()]
	for i := range want {
		if err := checkClose("lulesh field", got[i], want[i], 1e-12); err != nil {
			t.Failf("rank %d elem %d: %v", t.Rank(), i, err)
		}
	}
}
