package bench

import (
	"fmt"
	"io"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// styleFor picks each runtime's best practical style: the IMPACC version
// uses the unified activity queue (Figure 4c); the MPI+OpenACC baseline
// uses non-blocking MPI with explicit synchronization (Figure 4b).
func styleFor(mode core.Mode) apps.Style {
	if mode == core.IMPACC {
		return apps.StyleUnified
	}
	return apps.StyleAsync
}

// SpeedupRow is one sample of a speedup figure: both runtimes normalized to
// the same baseline elapsed time.
type SpeedupRow struct {
	Panel  string
	Param  string // problem size / class
	Tasks  int
	IMPACC float64
	MPIX   float64
}

// timeApp runs prog in the given mode and returns the elapsed virtual time.
func timeApp(opt Options, sys func() *topo.System, mode core.Mode, tasks int, prog func(style apps.Style) core.Program) (sim.Dur, *core.Report, error) {
	cfg := baseCfg(opt, sys(), mode, tasks, false)
	return elapsedOf(opt, cfg, prog(styleFor(mode)))
}

// speedupSweep times both modes across task counts (concurrently, when the
// options carry a worker pool) and normalizes to the legacy run at
// baseTasks.
func speedupSweep(opt Options, panel, param string, sys func() *topo.System, taskCounts []int, baseTasks int,
	prog func(style apps.Style) core.Program) ([]SpeedupRow, error) {
	base, _, err := timeApp(opt, sys, core.Legacy, baseTasks, prog)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", panel, err)
	}
	return parMap(opt, taskCounts, func(_ int, tc int) (SpeedupRow, error) {
		ti, _, err := timeApp(opt, sys, core.IMPACC, tc, prog)
		if err != nil {
			return SpeedupRow{}, fmt.Errorf("%s IMPACC %d: %w", panel, tc, err)
		}
		tl, _, err := timeApp(opt, sys, core.Legacy, tc, prog)
		if err != nil {
			return SpeedupRow{}, fmt.Errorf("%s MPI+X %d: %w", panel, tc, err)
		}
		return SpeedupRow{
			Panel: panel, Param: param, Tasks: tc,
			IMPACC: base.Seconds() / ti.Seconds(),
			MPIX:   base.Seconds() / tl.Seconds(),
		}, nil
	})
}

// sweepJob is one independent panel of a speedup figure.
type sweepJob func() ([]SpeedupRow, error)

// runSweeps executes panel jobs (concurrently under a worker pool) and
// concatenates their rows in panel order.
func runSweeps(opt Options, jobs []sweepJob) ([]SpeedupRow, error) {
	chunks, err := parMap(opt, jobs, func(_ int, job sweepJob) ([]SpeedupRow, error) { return job() })
	if err != nil {
		return nil, err
	}
	return flatten(chunks), nil
}

// runSpeedups is the Run of a speedup figure: one table, one CSV, from
// the rows fig returns.
func runSpeedups(fig func(Options) ([]SpeedupRow, error)) func(io.Writer, Options) ([][]string, error) {
	return func(w io.Writer, opt Options) ([][]string, error) {
		rows, err := fig(opt)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-16s %-10s %6s %10s %10s\n", "panel", "param", "tasks", "IMPACC", "MPI+X")
		recs := [][]string{{"panel", "param", "tasks", "impacc_speedup", "mpix_speedup"}}
		for _, r := range rows {
			fmt.Fprintf(w, "%-16s %-10s %6d %10.2f %10.2f\n", r.Panel, r.Param, r.Tasks, r.IMPACC, r.MPIX)
			recs = append(recs, []string{r.Panel, r.Param, itoa(r.Tasks), ftoa(r.IMPACC), ftoa(r.MPIX)})
		}
		return recs, nil
	}
}

// ---- Figure 10: DGEMM -----------------------------------------------------

// Fig10 sweeps DGEMM strong scaling on the three systems.
func Fig10(opt Options) ([]SpeedupRow, error) {
	psgNs := []int{1024, 2048, 4096, 8192}
	psgTasks := []int{1, 2, 4, 8}
	beaconSys := func() *topo.System { return topo.Beacon(32) }
	beaconTasks := []int{1, 2, 4, 8, 16, 32, 64, 128}
	beaconN := 8192
	titanSys := func() *topo.System { return topo.Titan(1024) }
	titanTasks := []int{128, 256, 512, 1024}
	titanN := 24576
	titanBase := 128
	if opt.Quick {
		psgNs = []int{256, 512}
		psgTasks = []int{1, 2, 4}
		beaconSys = func() *topo.System { return topo.Beacon(4) }
		beaconTasks = []int{1, 4, 16}
		beaconN = 512
		titanSys = func() *topo.System { return topo.Titan(8) }
		titanTasks = []int{2, 4, 8}
		titanN = 512
		titanBase = 2
	}
	var jobs []sweepJob
	for _, n := range psgNs {
		n := n
		jobs = append(jobs, func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "PSG", fmt.Sprintf("%dx%d", n, n), topo.PSG, psgTasks, 1,
				func(s apps.Style) core.Program { return apps.DGEMM(apps.DGEMMConfig{N: n, Style: s}) })
		})
	}
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Beacon", fmt.Sprintf("%dx%d", beaconN, beaconN), beaconSys, beaconTasks, 1,
			func(s apps.Style) core.Program { return apps.DGEMM(apps.DGEMMConfig{N: beaconN, Style: s}) })
	})
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Titan", fmt.Sprintf("%dx%d", titanN, titanN), titanSys, titanTasks, titanBase,
			func(s apps.Style) core.Program { return apps.DGEMM(apps.DGEMMConfig{N: titanN, Style: s}) })
	})
	return runSweeps(opt, jobs)
}

// ---- Figure 11: DGEMM breakdown -------------------------------------------

// Fig11Row decomposes one DGEMM run, normalized to the legacy 1-task total
// for the same input.
type Fig11Row struct {
	N     int
	Tasks int
	Mode  core.Mode
	// Fractions of the baseline total.
	Kernel, Comm, Other float64
}

// Fig11 reproduces the PSG execution-time breakdown.
func Fig11(opt Options) ([]Fig11Row, error) {
	ns := []int{1024, 2048, 4096, 8192}
	taskCounts := []int{1, 2, 4, 8}
	if opt.Quick {
		ns = []int{256, 512}
		taskCounts = []int{1, 4}
	}
	type cell struct {
		tc   int
		mode core.Mode
	}
	chunks, err := parMap(opt, ns, func(_ int, n int) ([]Fig11Row, error) {
		prog := func(s apps.Style) core.Program { return apps.DGEMM(apps.DGEMMConfig{N: n, Style: s}) }
		base, _, err := timeApp(opt, topo.PSG, core.Legacy, 1, prog)
		if err != nil {
			return nil, err
		}
		var cells []cell
		for _, tc := range taskCounts {
			for _, mode := range []core.Mode{core.Legacy, core.IMPACC} {
				cells = append(cells, cell{tc, mode})
			}
		}
		return parMap(opt, cells, func(_ int, c cell) (Fig11Row, error) {
			elapsed, rep, err := timeApp(opt, topo.PSG, c.mode, c.tc, prog)
			if err != nil {
				return Fig11Row{}, err
			}
			var kernel, comm sim.Dur
			for _, tr := range rep.Tasks {
				kernel += tr.Dev.KernelTime
				comm += tr.Comm
			}
			kernel /= sim.Dur(len(rep.Tasks))
			comm /= sim.Dur(len(rep.Tasks))
			other := elapsed - kernel - comm
			if other < 0 {
				other = 0
			}
			return Fig11Row{
				N: n, Tasks: c.tc, Mode: c.mode,
				Kernel: kernel.Seconds() / base.Seconds(),
				Comm:   comm.Seconds() / base.Seconds(),
				Other:  other.Seconds() / base.Seconds(),
			}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return flatten(chunks), nil
}

func runFig11(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Fig11(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %6s %-12s %8s %8s %8s %8s\n", "N", "tasks", "mode", "kernel", "comm", "other", "total")
	recs := [][]string{{"n", "tasks", "mode", "kernel", "comm", "other"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %6d %-12s %8.3f %8.3f %8.3f %8.3f\n",
			r.N, r.Tasks, r.Mode, r.Kernel, r.Comm, r.Other, r.Kernel+r.Comm+r.Other)
		recs = append(recs, []string{itoa(r.N), itoa(r.Tasks), r.Mode.String(), ftoa(r.Kernel), ftoa(r.Comm), ftoa(r.Other)})
	}
	return recs, nil
}

// ---- Figure 12: EP ---------------------------------------------------------

// Fig12 sweeps EP strong scaling across classes and systems.
func Fig12(opt Options) ([]SpeedupRow, error) {
	psgClasses := []apps.EPClass{apps.EPClassA, apps.EPClassB, apps.EPClassC, apps.EPClassD, apps.EPClassE}
	psgTasks := []int{1, 2, 4, 8}
	beaconSys := func() *topo.System { return topo.Beacon(32) }
	beaconTasks := []int{1, 2, 4, 8, 16, 32, 64, 128}
	beaconClass := apps.EPClassE
	titanSys := func() *topo.System { return topo.Titan(8192) }
	titanTasks := []int{128, 512, 2048, 8192}
	titanClass := apps.EPClassT
	titanBase := 128
	if opt.Quick {
		psgClasses = []apps.EPClass{apps.EPClassA, apps.EPClassB}
		psgTasks = []int{1, 4}
		beaconSys = func() *topo.System { return topo.Beacon(4) }
		beaconTasks = []int{1, 8}
		beaconClass = apps.EPClassB
		titanSys = func() *topo.System { return topo.Titan(8) }
		titanTasks = []int{2, 8}
		titanClass = apps.EPClassC
		titanBase = 2
	}
	epProg := func(class apps.EPClass) func(apps.Style) core.Program {
		return func(s apps.Style) core.Program {
			return apps.EP(apps.EPConfig{Class: class, Style: s})
		}
	}
	var jobs []sweepJob
	for _, class := range psgClasses {
		class := class
		jobs = append(jobs, func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "PSG", "class "+class.Name, topo.PSG, psgTasks, 1, epProg(class))
		})
	}
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Beacon", "class "+beaconClass.Name, beaconSys, beaconTasks, 1, epProg(beaconClass))
	})
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Titan", "class "+titanClass.Name, titanSys, titanTasks, titanBase, epProg(titanClass))
	})
	return runSweeps(opt, jobs)
}

// ---- Figure 13: Jacobi -----------------------------------------------------

// Fig13 sweeps Jacobi strong scaling.
func Fig13(opt Options) ([]SpeedupRow, error) {
	iters := 100 // steady-state sweeps; setup transfers amortize away
	psgNs := []int{1024, 2048, 4096, 8192}
	psgTasks := []int{1, 2, 4, 8}
	beaconSys := func() *topo.System { return topo.Beacon(32) }
	beaconTasks := []int{1, 2, 4, 8, 16, 32, 64, 128}
	beaconN := 8192
	titanSys := func() *topo.System { return topo.Titan(1024) }
	titanTasks := []int{128, 256, 512, 1024}
	titanN := 24576
	titanBase := 128
	if opt.Quick {
		iters = 4
		psgNs = []int{256}
		psgTasks = []int{1, 4}
		beaconSys = func() *topo.System { return topo.Beacon(4) }
		beaconTasks = []int{1, 8}
		beaconN = 512
		titanSys = func() *topo.System { return topo.Titan(8) }
		titanTasks = []int{2, 8}
		titanN = 512
		titanBase = 2
	}
	jProg := func(n int) func(apps.Style) core.Program {
		return func(s apps.Style) core.Program {
			return apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: s})
		}
	}
	var jobs []sweepJob
	for _, n := range psgNs {
		n := n
		jobs = append(jobs, func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "PSG", fmt.Sprintf("%dx%d", n, n), topo.PSG, psgTasks, 1, jProg(n))
		})
	}
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Beacon", fmt.Sprintf("%dx%d", beaconN, beaconN), beaconSys, beaconTasks, 1, jProg(beaconN))
	})
	jobs = append(jobs, func() ([]SpeedupRow, error) {
		return speedupSweep(opt, "Titan", fmt.Sprintf("%dx%d", titanN, titanN), titanSys, titanTasks, titanBase, jProg(titanN))
	})
	return runSweeps(opt, jobs)
}

// ---- Figure 14: Jacobi DtoD breakdown --------------------------------------

// Fig14Row decomposes halo-exchange copy time for one configuration.
type Fig14Row struct {
	N     int
	Tasks int
	// IMPACC: a single direct DtoD transfer.
	IMPACCDtoD sim.Dur
	// MPI+OpenACC: staging + transport components.
	MPIXDtoH, MPIXHtoH, MPIXHtoD sim.Dur
}

// Fig14 measures the device-to-device communication components on PSG.
func Fig14(opt Options) ([]Fig14Row, error) {
	ns := []int{1024, 2048, 4096, 8192}
	taskCounts := []int{2, 4, 8}
	iters := 10
	if opt.Quick {
		ns = []int{512}
		taskCounts = []int{2, 4}
		iters = 3
	}
	// Setup transfers (initial copyin, final copyout) are identical at any
	// iteration count, so the difference between a 2k- and a k-iteration
	// run isolates the per-exchange components — what Figure 14 plots.
	run := func(mode core.Mode, n, tc, it int) (device.Stats, error) {
		cfg := baseCfg(opt, topo.PSG(), mode, tc, false)
		_, rep, err := elapsedOf(opt, cfg, apps.Jacobi(apps.JacobiConfig{
			N: n, Iters: it, Style: styleFor(mode)}))
		if err != nil {
			return device.Stats{}, err
		}
		return rep.TotalDev(), nil
	}
	type cell struct{ tc, n int }
	var cells []cell
	for _, tc := range taskCounts {
		for _, n := range ns {
			cells = append(cells, cell{tc, n})
		}
	}
	return parMap(opt, cells, func(_ int, c cell) (Fig14Row, error) {
		row := Fig14Row{N: c.n, Tasks: c.tc}
		for _, mode := range []core.Mode{core.IMPACC, core.Legacy} {
			lo, err := run(mode, c.n, c.tc, iters)
			if err != nil {
				return Fig14Row{}, err
			}
			hi, err := run(mode, c.n, c.tc, 2*iters)
			if err != nil {
				return Fig14Row{}, err
			}
			if mode == core.IMPACC {
				row.IMPACCDtoD = hi.DtoDTime - lo.DtoDTime
			} else {
				row.MPIXDtoH = hi.DtoHTime - lo.DtoHTime
				row.MPIXHtoH = hi.HtoHTime - lo.HtoHTime
				row.MPIXHtoD = hi.HtoDTime - lo.HtoDTime
			}
		}
		return row, nil
	})
}

func runFig14(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Fig14(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %6s %14s %14s %14s %14s %14s\n",
		"N", "tasks", "IMPACC DtoD", "MPI+X DtoH", "MPI+X HtoH", "MPI+X HtoD", "MPI+X total")
	recs := [][]string{{"n", "tasks", "impacc_dtod_ns", "mpix_dtoh_ns", "mpix_htoh_ns", "mpix_htod_ns"}}
	for _, r := range rows {
		total := r.MPIXDtoH + r.MPIXHtoH + r.MPIXHtoD
		fmt.Fprintf(w, "%-6d %6d %14v %14v %14v %14v %14v\n",
			r.N, r.Tasks, r.IMPACCDtoD, r.MPIXDtoH, r.MPIXHtoH, r.MPIXHtoD, total)
		recs = append(recs, []string{itoa(r.N), itoa(r.Tasks), itoa(r.IMPACCDtoD),
			itoa(r.MPIXDtoH), itoa(r.MPIXHtoH), itoa(r.MPIXHtoD)})
	}
	return recs, nil
}

// ---- Figure 15: LULESH -----------------------------------------------------

// Fig15 runs the LULESH weak-scaling study: per-task problem size fixed,
// task counts are perfect cubes, results normalized to the legacy baseline.
func Fig15(opt Options) ([]SpeedupRow, error) {
	edge, steps := 45, 10
	psgTasks := []int{1, 8}
	beaconSys := func() *topo.System { return topo.Beacon(16) }
	beaconTasks := []int{1, 8, 27, 64}
	titanSys := func() *topo.System { return topo.Titan(8000) }
	titanTasks := []int{125, 1000, 3375, 8000}
	titanBase := 125
	if opt.Quick {
		edge, steps = 8, 2
		beaconSys = func() *topo.System { return topo.Beacon(2) }
		beaconTasks = []int{1, 8}
		titanSys = func() *topo.System { return topo.Titan(27) }
		titanTasks = []int{8, 27}
		titanBase = 8
	}
	// LULESH runs the same host-to-host source under both models; only
	// Sync style applies (the unmodified 2.0.2 code of §4.2).
	prog := func(apps.Style) core.Program {
		return apps.LULESH(apps.LULESHConfig{Edge: edge, Steps: steps})
	}
	jobs := []sweepJob{
		func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "PSG", fmt.Sprintf("%d^3/task", edge), topo.PSG, psgTasks, 1, prog)
		},
		func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "Beacon", fmt.Sprintf("%d^3/task", edge), beaconSys, beaconTasks, 1, prog)
		},
		func() ([]SpeedupRow, error) {
			return speedupSweep(opt, "Titan", fmt.Sprintf("%d^3/task", edge), titanSys, titanTasks, titanBase, prog)
		},
	}
	return runSweeps(opt, jobs)
}

// ---- Extension: 1-D vs 2-D Jacobi partitioning -----------------------------

// Ext2DRow compares halo traffic and elapsed time of the two partitionings.
type Ext2DRow struct {
	N, Tasks             int
	Elapsed1D, Elapsed2D sim.Dur
	Halo1D, Halo2D       int64 // DtoD bytes moved
}

// Ext2D runs the communicator-based 2-D Jacobi against the paper's 1-D
// version: per-task halo volume drops from O(2N) to O(2N/sqrt(P)).
func Ext2D(opt Options) ([]Ext2DRow, error) {
	n, iters := 4096, 20
	taskCounts := []int{4, 8}
	if opt.Quick {
		n, iters = 512, 4
	}
	return parMap(opt, taskCounts, func(_ int, tc int) (Ext2DRow, error) {
		cfg := baseCfg(opt, topo.PSG(), core.IMPACC, tc, false)
		e1, r1, err := elapsedOf(opt, cfg, apps.Jacobi(apps.JacobiConfig{N: n, Iters: iters, Style: apps.StyleUnified}))
		if err != nil {
			return Ext2DRow{}, err
		}
		e2, r2, err := elapsedOf(opt, cfg, apps.Jacobi2D(apps.Jacobi2DConfig{N: n, Iters: iters, Style: apps.StyleUnified}))
		if err != nil {
			return Ext2DRow{}, err
		}
		return Ext2DRow{
			N: n, Tasks: tc,
			Elapsed1D: e1, Elapsed2D: e2,
			Halo1D: r1.TotalDev().DtoDBytes, Halo2D: r2.TotalDev().DtoDBytes,
		}, nil
	})
}

func runExt2D(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Ext2D(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %6s %12s %12s %14s %14s\n", "N", "tasks", "1D elapsed", "2D elapsed", "1D halo bytes", "2D halo bytes")
	recs := [][]string{{"n", "tasks", "elapsed_1d_ns", "elapsed_2d_ns", "halo_1d_bytes", "halo_2d_bytes"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %6d %12v %12v %14d %14d\n",
			r.N, r.Tasks, r.Elapsed1D, r.Elapsed2D, r.Halo1D, r.Halo2D)
		recs = append(recs, []string{itoa(r.N), itoa(r.Tasks), itoa(r.Elapsed1D), itoa(r.Elapsed2D),
			itoa(r.Halo1D), itoa(r.Halo2D)})
	}
	return recs, nil
}
