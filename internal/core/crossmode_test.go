package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// TestCrossModeEquivalence is the whole-stack property test: a randomly
// generated communication program (point-to-point pairs, broadcasts,
// reductions, gathers, allgathers, all-to-alls, barriers over random
// buffers) must produce bit-identical task data under the IMPACC runtime
// and the legacy MPI+OpenACC baseline. Fusion, aliasing, unified address
// spaces, and the staged transports may change *timing*, never *data*.
// Beacon:2 (two nodes of four devices) makes the collectives cross nodes,
// with random roots that are often not the lowest rank on their node.
func TestCrossModeEquivalence(t *testing.T) {
	systems := []struct {
		name     string
		sys      *topo.System
		maxTasks int
	}{
		{"psg", topo.PSG(), 4},
		{"beacon:2", topo.Beacon(2), 0},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, s := range systems {
				cfg := func(m Mode) Config {
					return Config{System: s.sys, Mode: m, Backed: true, MaxTasks: s.maxTasks}
				}
				a := runRandomProgram(t, cfg(IMPACC), seed)
				b := runRandomProgram(t, cfg(Legacy), seed)
				if len(a) != len(b) {
					t.Fatalf("%s: digest counts differ: %d vs %d", s.name, len(a), len(b))
				}
				for rank := range a {
					if a[rank] != b[rank] {
						t.Errorf("%s rank %d digests differ: IMPACC %x, legacy %x", s.name, rank, a[rank], b[rank])
					}
				}
			}
		})
	}
}

// runRandomProgram executes a seed-determined op sequence and returns one
// data digest per rank.
func runRandomProgram(t *testing.T, cfg Config, seed uint64) []uint64 {
	t.Helper()
	cfg.Seed = 12345 // runtime seed fixed; program shape driven by `seed`
	const elems = 64
	const nbuf = 4
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]uint64, len(rt.tasks))
	_, err = rt.Execute(func(tk *Task) {
		prog := sim.NewRNG(seed) // same stream on every task and mode
		n := tk.Size()
		bufs := make([]xmem.Addr, nbuf)
		for i := range bufs {
			bufs[i] = tk.Malloc(elems * 8)
			v := tk.Floats(bufs[i], elems)
			for j := range v {
				v[j] = float64(tk.Rank()*1000 + i*100 + j)
			}
		}
		// Alltoall exchanges scratch into xchg and then swaps the two:
		// MPI forbids aliased send and receive buffers, and an in-place
		// exchange would make the data depend on message timing.
		scratch := tk.Malloc(elems * 8 * int64(n))
		xchg := tk.Malloc(elems * 8 * int64(n))
		ops := 10 + prog.Intn(10)
		for op := 0; op < ops; op++ {
			kind := prog.Intn(7)
			b := bufs[prog.Intn(nbuf)]
			count := 1 + prog.Intn(elems)
			tag := prog.Intn(50)
			switch kind {
			case 0: // point-to-point pair
				src := prog.Intn(n)
				dst := (src + 1 + prog.Intn(n-1)) % n
				if tk.Rank() == src {
					tk.Send(b, count, mpi.Float64, dst, tag)
				} else if tk.Rank() == dst {
					tk.Recv(b, count, mpi.Float64, src, tag)
				}
			case 1: // broadcast
				root := prog.Intn(n)
				tk.Bcast(b, count, mpi.Float64, root)
			case 2: // allreduce
				op := []mpi.Op{mpi.Sum, mpi.Max, mpi.Min}[prog.Intn(3)]
				out := bufs[prog.Intn(nbuf)]
				tk.Allreduce(b, out, count, mpi.Float64, op)
			case 3: // gather to a root
				root := prog.Intn(n)
				tk.Gather(b, count, mpi.Float64, scratch, root)
				if tk.Rank() == root {
					// Fold the gathered block back into a buffer so it
					// affects the digest.
					g := tk.Floats(scratch, count*n)
					v := tk.Floats(b, elems)
					for i := 0; i < count; i++ {
						v[i] = g[i*n%len(g)] + v[i]/2
					}
				}
			case 4: // alltoall over per-rank blocks
				blk := 1 + prog.Intn(elems/n)
				tk.Alltoall(scratch, blk, mpi.Float64, xchg)
				scratch, xchg = xchg, scratch
			case 5:
				tk.Barrier()
			case 6: // allgather
				tk.Allgather(b, count, mpi.Float64, scratch)
			}
		}
		// Digest every buffer's final bytes.
		h := fnv.New64a()
		for _, b := range bufs {
			h.Write(tk.Bytes(b, elems*8))
		}
		h.Write(tk.Bytes(scratch, elems*8*int64(n)))
		h.Write(tk.Bytes(xchg, elems*8*int64(n)))
		digests[tk.Rank()] = h.Sum64()
	})
	if err != nil {
		t.Fatalf("mode %v seed %d: %v", cfg.Mode, seed, err)
	}
	return digests
}
