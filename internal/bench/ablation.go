package bench

import (
	"fmt"
	"io"

	"impacc/internal/acc"
	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// AblationRow compares a workload with one IMPACC technique disabled
// against the full runtime.
type AblationRow struct {
	Technique string
	Workload  string
	Off, On   sim.Dur
}

// Gain is the slowdown factor from disabling the technique.
func (r AblationRow) Gain() float64 { return r.Off.Seconds() / r.On.Seconds() }

// Ablations measures each design choice DESIGN.md calls out.
func Ablations(opt Options) ([]AblationRow, error) {
	n, iters := 2048, 10
	// Direct DtoD and GPUDirect RDMA matter for bandwidth-bound device
	// transfers: measure ping-pong exchanges of large device buffers.
	xfer, reps := int64(32<<20), 8
	// Small messages: the serialized call window (library overhead +
	// staging setup) exceeds the per-message wire time, so the lock is the
	// bottleneck — the regime the paper's argument addresses.
	msgBytes, rounds := int64(4096), 128
	if opt.Quick {
		n, iters, xfer, reps, rounds = 512, 3, 4<<20, 3, 24
	}
	// ablate builds a technique's row from run: the workload with the
	// technique disabled (off), then enabled.
	ablate := func(name, workload string, run func(off bool) (sim.Dur, error)) func() (AblationRow, error) {
		return func() (AblationRow, error) {
			row := AblationRow{Technique: name, Workload: workload}
			var err error
			if row.Off, err = run(true); err != nil {
				return row, fmt.Errorf("%s off: %w", name, err)
			}
			if row.On, err = run(false); err != nil {
				return row, fmt.Errorf("%s on: %w", name, err)
			}
			return row, nil
		}
	}
	// run runs prog under IMPACC with tasks tasks on sys, after edit (if
	// any) adjusts the config.
	run := func(sys *topo.System, tasks int, prog core.Program, edit func(*core.Config)) (sim.Dur, error) {
		cfg := baseCfg(opt, sys, core.IMPACC, tasks, false)
		if edit != nil {
			edit(&cfg)
		}
		d, _, err := elapsedOf(opt, cfg, prog)
		return d, err
	}
	// feature runs prog with the full IMPACC feature set, minus the
	// mutation when off.
	feature := func(sys *topo.System, tasks int, prog core.Program, mutate func(*core.Features)) func(bool) (sim.Dur, error) {
		return func(off bool) (sim.Dur, error) {
			f := core.DefaultFeatures(core.IMPACC)
			if off {
				mutate(&f)
			}
			return run(sys, tasks, prog, func(c *core.Config) { c.Features = &f })
		}
	}

	pingPong := devicePingPong(xfer, reps)
	jobs := []func() (AblationRow, error){
		// Node heap aliasing: without it, the intra-node DGEMM distribution
		// of readonly buffers copies instead of sharing pages.
		ablate("node-heap-aliasing", fmt.Sprintf("DGEMM %d (PSG x8)", n),
			feature(topo.PSG(), 8, apps.DGEMM(apps.DGEMMConfig{N: n, Style: apps.StyleUnified}),
				func(f *core.Features) { f.Aliasing = false })),
		ablate("direct-p2p-dtod", fmt.Sprintf("%dx%dMB DtoD intra (PSG)", reps, xfer>>20),
			feature(topo.PSG(), 2, pingPong, func(f *core.Features) { f.DirectP2P = false })),
		ablate("gpudirect-rdma", fmt.Sprintf("%dx%dMB DtoD inter (Titan)", reps, xfer>>20),
			feature(topo.Titan(2), 2, pingPong, func(f *core.Features) { f.RDMA = false })),
		// Unified activity queue: unified style vs the async style with
		// explicit synchronization, both under IMPACC.
		ablate("unified-activity-queue", fmt.Sprintf("Jacobi %d (PSG x8)", n), func(off bool) (sim.Dur, error) {
			style := apps.StyleUnified
			if off {
				style = apps.StyleAsync
			}
			return run(topo.PSG(), 8, apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: style}), nil)
		}),
		// MPI_THREAD_MULTIPLE: an MPI library without it serializes each
		// node's internode calls — and the library-internal staging copies
		// of device sends on the non-GPUDirect Beacon (paper §3.7). Four
		// tasks per node exchanging device buffers across the network
		// expose the lock.
		ablate("mpi-thread-multiple", fmt.Sprintf("%dx%dKB dev exch (Beacon 2x4)", rounds, msgBytes>>10), func(off bool) (sim.Dur, error) {
			sys := topo.Beacon(2)
			if off {
				sys.ThreadMultiple = false
			}
			return run(sys, 8, crossNodeDeviceExchange(msgBytes, rounds), nil)
		}),
		// NUMA pinning: far vs near (the Figure 8 effect at app level).
		ablate("numa-pinning", fmt.Sprintf("DGEMM %d sync (PSG x8)", n), func(off bool) (sim.Dur, error) {
			return run(topo.PSG(), 8, apps.DGEMM(apps.DGEMMConfig{N: n, Style: apps.StyleSync}), func(c *core.Config) {
				c.Pin = core.PinNear
				if off {
					c.Pin = core.PinFar
				}
			})
		}),
	}
	return parMap(opt, jobs, func(_ int, job func() (AblationRow, error)) (AblationRow, error) {
		return job()
	})
}

func runAblation(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Ablations(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-24s %-26s %12s %12s %8s\n", "technique", "workload", "disabled", "enabled", "cost")
	recs := [][]string{{"technique", "workload", "disabled_ns", "enabled_ns", "cost"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %-26s %12v %12v %7.2fx\n", r.Technique, r.Workload, r.Off, r.On, r.Gain())
		recs = append(recs, []string{r.Technique, r.Workload, itoa(r.Off), itoa(r.On), ftoa(r.Gain())})
	}
	return recs, nil
}

// devicePingPong exchanges a device buffer between ranks 0 and 1 reps
// times (rank 0 sends, rank 1 returns it).
func devicePingPong(bytes int64, reps int) core.Program {
	return func(t *core.Task) {
		if t.Rank() > 1 {
			return
		}
		buf := t.Malloc(bytes)
		t.DataEnter(buf, bytes, acc.Create)
		peer := 1 - t.Rank()
		count := int(bytes / 8)
		for i := 0; i < reps; i++ {
			if t.Rank() == 0 {
				t.Send(buf, count, mpi.Float64, peer, 1, core.OnDevice())
				t.Recv(buf, count, mpi.Float64, peer, 2, core.OnDevice())
			} else {
				t.Recv(buf, count, mpi.Float64, peer, 1, core.OnDevice())
				t.Send(buf, count, mpi.Float64, peer, 2, core.OnDevice())
			}
		}
		t.DataExit(buf, acc.Delete)
	}
}

// crossNodeDeviceExchange pairs task i on node 0 with task i on node 1;
// every pair exchanges device buffers concurrently, contending for each
// node's MPI library call path.
func crossNodeDeviceExchange(bytes int64, reps int) core.Program {
	return func(t *core.Task) {
		half := t.Size() / 2
		var peer int
		if t.Rank() < half {
			peer = t.Rank() + half
		} else {
			peer = t.Rank() - half
		}
		buf := t.Malloc(bytes)
		t.DataEnter(buf, bytes, acc.Create)
		count := int(bytes / 8)
		for i := 0; i < reps; i++ {
			// Bulk-synchronous rounds: all pairs hit the MPI library at
			// the same instant, the worst case for a serialized library.
			t.Barrier()
			if t.Rank() < half {
				t.Send(buf, count, mpi.Float64, peer, 1, core.OnDevice())
				t.Recv(buf, count, mpi.Float64, peer, 2, core.OnDevice())
			} else {
				t.Recv(buf, count, mpi.Float64, peer, 1, core.OnDevice())
				t.Send(buf, count, mpi.Float64, peer, 2, core.OnDevice())
			}
		}
		t.DataExit(buf, acc.Delete)
	}
}
