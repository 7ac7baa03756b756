package bench

import (
	"fmt"
	"io"
	"strconv"

	"impacc/internal/acc"
	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// ---- Figure 4/5: synchronization styles ---------------------------------

// Fig5Result measures one style of the Figure 4 exchange.
type Fig5Result struct {
	Style   apps.Style
	Elapsed sim.Dur
	// IssueSpan is how long the host thread was captive issuing the
	// pipeline (until its last enqueue, before any final drain): the
	// HOST-timeline width of Figure 5. Under the unified activity queue
	// the host is free almost immediately.
	IssueSpan sim.Dur
}

// Fig5 runs the kernel-send-recv-kernel pipeline of Figure 4 in all three
// styles on two PSG tasks and reports elapsed and host-blocked time,
// reproducing the Figure 5 timelines.
func Fig5(opt Options) ([]Fig5Result, error) {
	n := int64(8 << 20)
	if opt.Quick {
		n = 1 << 20
	}
	styles := []apps.Style{apps.StyleSync, apps.StyleAsync, apps.StyleUnified}
	return parMap(opt, styles, func(_ int, style apps.Style) (Fig5Result, error) {
		cfg := baseCfg(opt, topo.PSG(), core.IMPACC, 2, false)
		issue := make([]sim.Time, 2)
		rep, err := runGated(opt, cfg, fig5Prog(style, n, issue))
		if err != nil {
			return Fig5Result{}, fmt.Errorf("fig5 %v: %w", style, err)
		}
		span := issue[0]
		if issue[1] > span {
			span = issue[1]
		}
		return Fig5Result{Style: style, Elapsed: rep.Elapsed, IssueSpan: sim.Dur(span)}, nil
	})
}

// fig5Prog is the Figure 4 code: run a kernel producing buf0, exchange buf0
// for the peer's buf1, run a kernel consuming buf1.
func fig5Prog(style apps.Style, n int64, issue []sim.Time) core.Program {
	return func(t *core.Task) {
		peer := 1 - t.Rank()
		buf0 := t.Malloc(n)
		buf1 := t.Malloc(n)
		t.DataEnter(buf0, n, acc.Create)
		t.DataEnter(buf1, n, acc.Create)
		count := int(n / 8)
		spec := device.KernelSpec{Name: "k", FLOPs: 40 * float64(count), Kind: device.KindCompute}
		const iters = 4
		for i := 0; i < iters; i++ {
			switch style {
			case apps.StyleSync: // Figure 4 (a)
				t.Kernels(spec, -1)
				t.UpdateHost(buf0, n, -1)
				if t.Rank() == 0 {
					t.Send(buf0, count, mpi.Float64, peer, 1)
					t.Recv(buf1, count, mpi.Float64, peer, 1)
				} else {
					t.Recv(buf1, count, mpi.Float64, peer, 1)
					t.Send(buf0, count, mpi.Float64, peer, 1)
				}
				t.UpdateDevice(buf1, n, -1)
				t.Kernels(spec, -1)
			case apps.StyleAsync: // Figure 4 (b)
				t.Kernels(spec, 1)
				t.UpdateHost(buf0, n, 1)
				t.ACCWait(1)
				rs := []*core.Request{
					t.Isend(buf0, count, mpi.Float64, peer, 1),
					t.Irecv(buf1, count, mpi.Float64, peer, 1),
				}
				t.Wait(rs...)
				t.UpdateDevice(buf1, n, 1)
				t.Kernels(spec, 1)
				t.ACCWait(1)
			default: // Figure 4 (c)
				t.Kernels(spec, 1)
				t.Isend(buf0, count, mpi.Float64, peer, 1, core.OnDevice(), core.Async(1))
				t.Irecv(buf1, count, mpi.Float64, peer, 1, core.OnDevice(), core.Async(1))
				t.Kernels(spec, 1)
			}
		}
		issue[t.Rank()] = t.Now()
		if style == apps.StyleUnified {
			t.ACCWait(1)
		}
	}
}

func runFig5(w io.Writer, opt Options) ([][]string, error) {
	res, err := Fig5(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-10s %12s %14s\n", "style", "elapsed", "host-captive")
	recs := [][]string{{"style", "elapsed_ns", "host_captive_ns"}}
	for _, r := range res {
		fmt.Fprintf(w, "%-10s %12v %14v\n", r.Style, r.Elapsed, r.IssueSpan)
		recs = append(recs, []string{r.Style.String(), itoa(r.Elapsed), itoa(r.IssueSpan)})
	}
	return recs, nil
}

// ---- Figure 6: message fusion -------------------------------------------

// Fig6Result counts copy operations for one buffer-location pair.
type Fig6Result struct {
	Pair         string // HtoH, HtoD, DtoH, DtoD
	LegacyCopies int64  // staging + redundant copies in MPI+OpenACC
	IMPACCCopies int64  // fused copies
	LegacyTime   sim.Dur
	IMPACCTime   sim.Dur
}

// Fig6 transfers one message between two intra-node tasks for each of the
// four location pairs under both runtimes and counts the physical copies —
// the content of Figure 6.
func Fig6(opt Options) ([]Fig6Result, error) {
	n := int64(16 << 20)
	if opt.Quick {
		n = 1 << 20
	}
	pairs := []string{"HtoH", "HtoD", "DtoH", "DtoD"}
	return parMap(opt, pairs, func(_ int, pair string) (Fig6Result, error) {
		res := Fig6Result{Pair: pair}
		for _, mode := range []core.Mode{core.Legacy, core.IMPACC} {
			times := &p2pTimes{}
			cfg := baseCfg(opt, topo.PSG(), mode, 2, false)
			cfg.Pin = core.PinNear // isolate the transport path from pinning
			rep, err := runGated(opt, cfg, p2pProg(pair, n, mode == core.Legacy, times))
			if err != nil {
				return Fig6Result{}, fmt.Errorf("fig6 %s %v: %w", pair, mode, err)
			}
			hub := rep.TotalHub()
			dev := rep.TotalDev()
			elapsed := sim.Dur(times.end - times.start)
			if mode == core.Legacy {
				// Transport shm copies + application staging copies.
				res.LegacyCopies = int64(hub.LegacyCopies) + dev.HtoDCount + dev.DtoHCount
				res.LegacyTime = elapsed
			} else {
				res.IMPACCCopies = int64(hub.FusedCopies)
				res.IMPACCTime = elapsed
			}
		}
		return res, nil
	})
}

func runFig6(w io.Writer, opt Options) ([][]string, error) {
	res, err := Fig6(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "pair", "MPI+X copies", "IMPACC copies", "MPI+X time", "IMPACC time")
	recs := [][]string{{"pair", "mpix_copies", "impacc_copies", "mpix_ns", "impacc_ns"}}
	for _, r := range res {
		fmt.Fprintf(w, "%-6s %14d %14d %14v %14v\n",
			r.Pair, r.LegacyCopies, r.IMPACCCopies, r.LegacyTime, r.IMPACCTime)
		recs = append(recs, []string{r.Pair, itoa(r.LegacyCopies), itoa(r.IMPACCCopies),
			itoa(r.LegacyTime), itoa(r.IMPACCTime)})
	}
	return recs, nil
}

// ---- Figure 7: node heap aliasing ---------------------------------------

// Fig7Result contrasts a readonly producer-consumer pair with a plain one.
type Fig7Result struct {
	ReadOnly bool
	Aliases  uint64
	Copies   uint64
	Elapsed  sim.Dur
}

// Fig7 reproduces the Figure 7 scenario: task 0 mallocs 100 elements and
// sends 10 from an offset; task 1 receives into a whole 10-element heap.
func Fig7(opt Options) ([]Fig7Result, error) {
	return parMap(opt, []bool{false, true}, func(_ int, ro bool) (Fig7Result, error) {
		cfg := baseCfg(opt, topo.PSG(), core.IMPACC, 2, true)
		var elapsed sim.Dur
		prog := func(t *core.Task) {
			const elems = 10
			if t.Rank() == 0 {
				src := t.Malloc(100 * 8)
				if v := t.Floats(src, 100); v != nil {
					for i := range v {
						v[i] = float64(i)
					}
				}
				var opts []core.Opt
				if ro {
					opts = append(opts, core.ReadOnly())
				}
				t.Send(src+xmem.Addr(30*8), elems, mpi.Float64, 1, 0, opts...)
			} else {
				dst := t.Malloc(elems * 8)
				start := t.Now()
				var opts []core.Opt
				if ro {
					opts = append(opts, core.ReadOnly())
				}
				t.Recv(dst, elems, mpi.Float64, 0, 0, opts...)
				elapsed = sim.Dur(t.Now() - start)
				if v := t.Floats(dst, elems); v != nil && v[0] != 30 {
					t.Failf("fig7: dst[0] = %v, want 30", v[0])
				}
			}
		}
		rep, err := runGated(opt, cfg, prog)
		if err != nil {
			return Fig7Result{}, err
		}
		return Fig7Result{
			ReadOnly: ro,
			Aliases:  rep.TotalHub().Aliases,
			Copies:   rep.TotalHub().FusedCopies,
			Elapsed:  elapsed,
		}, nil
	})
}

func runFig7(w io.Writer, opt Options) ([][]string, error) {
	res, err := Fig7(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-20s %8s %8s %12s\n", "variant", "aliases", "copies", "recv time")
	recs := [][]string{{"readonly", "aliases", "copies", "recv_ns"}}
	for _, r := range res {
		name := "plain"
		if r.ReadOnly {
			name = "readonly (#pam)"
		}
		fmt.Fprintf(w, "%-20s %8d %8d %12v\n", name, r.Aliases, r.Copies, r.Elapsed)
		recs = append(recs, []string{strconv.FormatBool(r.ReadOnly), itoa(r.Aliases), itoa(r.Copies), itoa(r.Elapsed)})
	}
	return recs, nil
}

// ---- Figure 8: NUMA-friendly pinning -------------------------------------

// Fig8Row is one bandwidth sample.
type Fig8Row struct {
	System  string
	Dir     string // HtoD or DtoH
	Bytes   int64
	NearGBs float64
	FarGBs  float64
}

func fig8Sizes(opt Options) []int64 {
	if opt.Quick {
		return []int64{64, 256 << 10, 64 << 20}
	}
	return []int64{64, 1 << 10, 16 << 10, 256 << 10, 4 << 20, 64 << 20, 1 << 30}
}

// Fig8 measures accelerator copy bandwidth with NUMA-friendly and
// NUMA-unfriendly task pinning on PSG and Beacon (paper Figure 8).
func Fig8(opt Options) ([]Fig8Row, error) {
	systems := []struct {
		name string
		sys  func() *topo.System
	}{
		{"PSG", topo.PSG},
		{"Beacon", func() *topo.System { return topo.Beacon(1) }},
	}
	type cell struct {
		sys  func() *topo.System
		name string
		dir  string
		size int64
	}
	var cells []cell
	for _, s := range systems {
		for _, dir := range []string{"HtoD", "DtoH"} {
			for _, size := range fig8Sizes(opt) {
				cells = append(cells, cell{s.sys, s.name, dir, size})
			}
		}
	}
	return parMap(opt, cells, func(_ int, c cell) (Fig8Row, error) {
		row := Fig8Row{System: c.name, Dir: c.dir, Bytes: c.size}
		for _, pin := range []core.PinPolicy{core.PinNear, core.PinFar} {
			cfg := baseCfg(opt, c.sys(), core.IMPACC, 1, false)
			cfg.Pin = pin
			var elapsed sim.Dur
			_, err := runGated(opt, cfg, func(t *core.Task) {
				buf := t.Malloc(c.size)
				t.DataEnter(buf, c.size, acc.Create)
				start := t.Now()
				if c.dir == "HtoD" {
					t.UpdateDevice(buf, c.size, -1)
				} else {
					t.UpdateHost(buf, c.size, -1)
				}
				elapsed = sim.Dur(t.Now() - start)
				t.DataExit(buf, acc.Delete)
			})
			if err != nil {
				return Fig8Row{}, err
			}
			if pin == core.PinNear {
				row.NearGBs = gbs(c.size, elapsed)
			} else {
				row.FarGBs = gbs(c.size, elapsed)
			}
		}
		return row, nil
	})
}

func runFig8(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Fig8(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-8s %-5s %-8s %12s %12s %8s\n", "system", "dir", "size", "near GB/s", "far GB/s", "ratio")
	recs := [][]string{{"system", "dir", "bytes", "near_gbs", "far_gbs"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-5s %-8s %12.2f %12.2f %8.2f\n",
			r.System, r.Dir, sizeLabel(r.Bytes), r.NearGBs, r.FarGBs, r.NearGBs/r.FarGBs)
		recs = append(recs, []string{r.System, r.Dir, itoa(r.Bytes), ftoa(r.NearGBs), ftoa(r.FarGBs)})
	}
	return recs, nil
}

// ---- Figure 9: point-to-point bandwidth ----------------------------------

// p2pTimes captures transfer start (sender) and end (receiver).
type p2pTimes struct {
	start, end sim.Time
}

// p2pProg transfers one message of the given location pair between rank 0
// (sender) and rank 1 (receiver). Under legacy, device endpoints stage
// explicitly through host buffers (the application-level copies of the
// MPI+OpenACC baseline); under IMPACC the unified routines take device
// addresses directly.
func p2pProg(pair string, n int64, legacy bool, res *p2pTimes) core.Program {
	srcDev := pair == "DtoH" || pair == "DtoD"
	dstDev := pair == "HtoD" || pair == "DtoD"
	count := int(n / 8)
	return func(t *core.Task) {
		buf := t.Malloc(n)
		if (t.Rank() == 0 && srcDev) || (t.Rank() == 1 && dstDev) {
			t.DataEnter(buf, n, acc.Create)
		}
		if t.Rank() == 0 {
			res.start = t.Now()
			if legacy {
				if srcDev {
					t.UpdateHost(buf, n, -1) // explicit copyout
				}
				t.Send(buf, count, mpi.Float64, 1, 0)
				return
			}
			opts := []core.Opt{}
			if srcDev {
				opts = append(opts, core.OnDevice())
			}
			t.Send(buf, count, mpi.Float64, 1, 0, opts...)
			return
		}
		if legacy {
			t.Recv(buf, count, mpi.Float64, 0, 0)
			if dstDev {
				t.UpdateDevice(buf, n, -1) // explicit copyin
			}
			res.end = t.Now()
			return
		}
		opts := []core.Opt{}
		if dstDev {
			opts = append(opts, core.OnDevice())
		}
		t.Recv(buf, count, mpi.Float64, 0, 0, opts...)
		res.end = t.Now()
	}
}

// Fig9Row is one bandwidth comparison sample.
type Fig9Row struct {
	Panel     string // e.g. "PSG DtoD (intra)", "Titan HtoH (inter)"
	Bytes     int64
	IMPACCGBs float64
	MPIXGBs   float64
}

// Fig9 measures point-to-point bandwidth between two tasks for every panel
// of Figure 9: intra-node on PSG and Beacon, internode on Titan.
func Fig9(opt Options) ([]Fig9Row, error) {
	panels := []struct {
		name string
		sys  func() *topo.System
	}{
		{"PSG-intra", topo.PSG},
		{"Beacon-intra", func() *topo.System { return topo.Beacon(1) }},
		{"Titan-inter", func() *topo.System { return topo.Titan(2) }},
	}
	type cell struct {
		sys   func() *topo.System
		panel string
		pair  string
		size  int64
	}
	var cells []cell
	for _, p := range panels {
		for _, pair := range []string{"HtoH", "HtoD", "DtoD"} {
			for _, size := range fig8Sizes(opt) {
				cells = append(cells, cell{p.sys, p.name, pair, size})
			}
		}
	}
	return parMap(opt, cells, func(_ int, c cell) (Fig9Row, error) {
		row := Fig9Row{Panel: c.panel + " " + c.pair, Bytes: c.size}
		for _, mode := range []core.Mode{core.IMPACC, core.Legacy} {
			times := &p2pTimes{}
			cfg := baseCfg(opt, c.sys(), mode, 2, false)
			cfg.Pin = core.PinNear // isolate the transport path
			_, err := runGated(opt, cfg, p2pProg(c.pair, c.size, mode == core.Legacy, times))
			if err != nil {
				return Fig9Row{}, fmt.Errorf("fig9 %s %s %v: %w", c.panel, c.pair, mode, err)
			}
			bw := gbs(c.size, sim.Dur(times.end-times.start))
			if mode == core.IMPACC {
				row.IMPACCGBs = bw
			} else {
				row.MPIXGBs = bw
			}
		}
		return row, nil
	})
}

func runFig9(w io.Writer, opt Options) ([][]string, error) {
	rows, err := Fig9(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-20s %-8s %13s %13s %8s\n", "panel", "size", "IMPACC GB/s", "MPI+X GB/s", "ratio")
	recs := [][]string{{"panel", "bytes", "impacc_gbs", "mpix_gbs"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-8s %13.2f %13.2f %8.2f\n",
			r.Panel, sizeLabel(r.Bytes), r.IMPACCGBs, r.MPIXGBs, r.IMPACCGBs/r.MPIXGBs)
		recs = append(recs, []string{r.Panel, itoa(r.Bytes), ftoa(r.IMPACCGBs), ftoa(r.MPIXGBs)})
	}
	return recs, nil
}
