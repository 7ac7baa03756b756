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

// withFeature runs prog with the full IMPACC feature set, minus the given
// mutation when off.
func runFeature(opt Options, sys *topo.System, tasks int, mutate func(f *core.Features), off bool, prog core.Program) (sim.Dur, error) {
	f := core.DefaultFeatures(core.IMPACC)
	if off {
		mutate(&f)
	}
	cfg := baseCfg(opt, sys, core.IMPACC, tasks, false)
	cfg.Features = &f
	d, _, err := elapsedOf(opt, cfg, prog)
	return d, err
}

// Ablations measures each design choice DESIGN.md calls out.
func Ablations(opt Options) ([]AblationRow, error) {
	n := 2048
	iters := 10
	if opt.Quick {
		n = 512
		iters = 3
	}
	// feature builds a technique job: the same workload with the mutation
	// applied (off) and with the full feature set (on).
	feature := func(name, workload string, sys *topo.System, tasks int,
		mutate func(*core.Features), prog core.Program) func() (AblationRow, error) {
		return func() (AblationRow, error) {
			off, err := runFeature(opt, sys, tasks, mutate, true, prog)
			if err != nil {
				return AblationRow{}, fmt.Errorf("%s off: %w", name, err)
			}
			on, err := runFeature(opt, sys, tasks, mutate, false, prog)
			if err != nil {
				return AblationRow{}, fmt.Errorf("%s on: %w", name, err)
			}
			return AblationRow{Technique: name, Workload: workload, Off: off, On: on}, nil
		}
	}

	dgemm := apps.DGEMM(apps.DGEMMConfig{N: n, Style: apps.StyleUnified})

	// Direct DtoD and GPUDirect RDMA matter for bandwidth-bound device
	// transfers: measure ping-pong exchanges of large device buffers.
	xfer := int64(32 << 20)
	reps := 8
	if opt.Quick {
		xfer = 4 << 20
		reps = 3
	}

	jobs := []func() (AblationRow, error){
		// Node heap aliasing: without it, the intra-node DGEMM distribution
		// of readonly buffers copies instead of sharing pages.
		feature("node-heap-aliasing", fmt.Sprintf("DGEMM %d (PSG x8)", n), topo.PSG(), 8,
			func(f *core.Features) { f.Aliasing = false }, dgemm),
		feature("direct-p2p-dtod", fmt.Sprintf("%dx%dMB DtoD intra (PSG)", reps, xfer>>20), topo.PSG(), 2,
			func(f *core.Features) { f.DirectP2P = false }, devicePingPong(xfer, reps)),
		feature("gpudirect-rdma", fmt.Sprintf("%dx%dMB DtoD inter (Titan)", reps, xfer>>20), topo.Titan(2), 2,
			func(f *core.Features) { f.RDMA = false }, devicePingPong(xfer, reps)),
		// Unified activity queue: unified style vs the async style with
		// explicit synchronization, both under IMPACC.
		func() (AblationRow, error) {
			cfgU := baseCfg(opt, topo.PSG(), core.IMPACC, 8, false)
			on, _, err := elapsedOf(opt, cfgU, apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: apps.StyleUnified}))
			if err != nil {
				return AblationRow{}, err
			}
			cfgA := baseCfg(opt, topo.PSG(), core.IMPACC, 8, false)
			off, _, err := elapsedOf(opt, cfgA, apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: apps.StyleAsync}))
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Technique: "unified-activity-queue",
				Workload:  fmt.Sprintf("Jacobi %d (PSG x8)", n),
				Off:       off, On: on,
			}, nil
		},
		// MPI_THREAD_MULTIPLE: without it, each node's internode calls — and
		// the library-internal staging copies of device sends on the
		// non-GPUDirect Beacon — serialize (paper §3.7). Four tasks per node
		// exchanging device buffers across the network expose the lock.
		func() (AblationRow, error) {
			sys := topo.Beacon(2)
			// Small messages: the serialized call window (library overhead +
			// staging setup) exceeds the per-message wire time, so the lock
			// is the bottleneck — the regime the paper's argument addresses.
			msgBytes, rounds := int64(4096), 128
			if opt.Quick {
				rounds = 24
			}
			mk := func(serial bool) (sim.Dur, error) {
				cfg := baseCfg(opt, sys, core.IMPACC, 8, false)
				cfg.ForceSerialMPI = serial
				d, _, err := elapsedOf(opt, cfg, crossNodeDeviceExchange(msgBytes, rounds))
				return d, err
			}
			off, err := mk(true)
			if err != nil {
				return AblationRow{}, err
			}
			on, err := mk(false)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Technique: "mpi-thread-multiple",
				Workload:  fmt.Sprintf("%dx%dKB dev exch (Beacon 2x4)", rounds, msgBytes>>10),
				Off:       off, On: on,
			}, nil
		},
		// NUMA pinning: far vs near (the Figure 8 effect at app level).
		func() (AblationRow, error) {
			mk := func(pin core.PinPolicy) (sim.Dur, error) {
				cfg := baseCfg(opt, topo.PSG(), core.IMPACC, 8, false)
				cfg.Pin = pin
				d, _, err := elapsedOf(opt, cfg, apps.DGEMM(apps.DGEMMConfig{N: n, Style: apps.StyleSync}))
				return d, err
			}
			off, err := mk(core.PinFar)
			if err != nil {
				return AblationRow{}, err
			}
			on, err := mk(core.PinNear)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Technique: "numa-pinning",
				Workload:  fmt.Sprintf("DGEMM %d sync (PSG x8)", n),
				Off:       off, On: on,
			}, nil
		},
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
