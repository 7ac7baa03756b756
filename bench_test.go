package impacc_test

// One testing.B benchmark per paper table/figure (quick-mode sweeps; run
// `impacc-bench -exp <id>` for the full parameter ranges). The benchmarks
// report the headline metric of each figure via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation's shape.

import (
	"io"
	"testing"

	"impacc"
	"impacc/internal/apps"
	"impacc/internal/bench"
	"impacc/internal/core"
)

var quick = bench.Options{Quick: true}

func runExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(io.Discard, quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Systems(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkFig2TaskMapping(b *testing.B) { runExperiment(b, "fig2") }

func BenchmarkFig5UnifiedQueue(b *testing.B) {
	var res []bench.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Fig5(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Elapsed.Seconds()*1e3, r.Style.String()+"-elapsed-ms")
		b.ReportMetric(r.IssueSpan.Seconds()*1e3, r.Style.String()+"-captive-ms")
	}
}

func BenchmarkFig6MessageFusion(b *testing.B) {
	var res []bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Fig6(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(float64(r.LegacyCopies), r.Pair+"-mpix-copies")
		b.ReportMetric(float64(r.IMPACCCopies), r.Pair+"-impacc-copies")
	}
}

func BenchmarkFig7Aliasing(b *testing.B) {
	var res []bench.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Fig7(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		name := "plain"
		if r.ReadOnly {
			name = "readonly"
		}
		b.ReportMetric(r.Elapsed.Seconds()*1e6, name+"-recv-us")
	}
}

func BenchmarkFig8NUMAPinning(b *testing.B) {
	var rows []bench.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig8(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst float64 = 1
	for _, r := range rows {
		if ratio := r.NearGBs / r.FarGBs; ratio > worst {
			worst = ratio
		}
	}
	b.ReportMetric(worst, "max-near/far")
}

func BenchmarkFig9P2P(b *testing.B) {
	var rows []bench.Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig9(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var dtod float64
	for _, r := range rows {
		if r.Panel == "PSG-intra DtoD" && r.IMPACCGBs/r.MPIXGBs > dtod {
			dtod = r.IMPACCGBs / r.MPIXGBs
		}
	}
	b.ReportMetric(dtod, "psg-dtod-gain")
}

func reportSpeedups(b *testing.B, rows []bench.SpeedupRow) {
	// Report the last (largest task count) row per panel.
	last := map[string]bench.SpeedupRow{}
	for _, r := range rows {
		last[r.Panel] = r
	}
	for panel, r := range last {
		b.ReportMetric(r.IMPACC, panel+"-impacc-x")
		b.ReportMetric(r.MPIX, panel+"-mpix-x")
	}
}

func BenchmarkFig10DGEMM(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig10(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows)
}

func BenchmarkFig11DGEMMBreakdown(b *testing.B) { runExperiment(b, "fig11") }

func BenchmarkFig12EP(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig12(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows)
}

func BenchmarkFig13Jacobi(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig13(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows)
}

func BenchmarkFig14JacobiDtoD(b *testing.B) {
	var rows []bench.Fig14Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig14(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[len(rows)-1]
	staged := r.MPIXDtoH + r.MPIXHtoH + r.MPIXHtoD
	b.ReportMetric(staged.Seconds()/r.IMPACCDtoD.Seconds(), "staged/direct")
}

func BenchmarkFig15LULESH(b *testing.B) {
	var rows []bench.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig15(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows)
}

// Ablation benches: the per-technique on/off costs of DESIGN.md §4.

func benchAblation(b *testing.B, technique string) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Ablations(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Technique == technique {
			b.ReportMetric(r.Gain(), "disable-cost-x")
			return
		}
	}
	b.Fatalf("technique %s not measured", technique)
}

func BenchmarkAblationAliasing(b *testing.B)     { benchAblation(b, "node-heap-aliasing") }
func BenchmarkAblationP2P(b *testing.B)          { benchAblation(b, "direct-p2p-dtod") }
func BenchmarkAblationRDMA(b *testing.B)         { benchAblation(b, "gpudirect-rdma") }
func BenchmarkAblationUnifiedQueue(b *testing.B) { benchAblation(b, "unified-activity-queue") }
func BenchmarkAblationThreadSerial(b *testing.B) { benchAblation(b, "mpi-thread-multiple") }
func BenchmarkAblationNUMAPinning(b *testing.B)  { benchAblation(b, "numa-pinning") }

// BenchmarkSimulatorThroughput measures raw engine performance: wall time
// for a full 8-task unified-queue Jacobi run (the simulator's hot path).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	prog := apps.Jacobi(apps.JacobiConfig{N: 512, Iters: 10, Style: apps.StyleUnified})
	for i := 0; i < b.N; i++ {
		cfg := impacc.Config{System: impacc.PSG(), Mode: impacc.IMPACC, Seed: 1}
		if _, err := core.Run(cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobi2DPartitioning compares the paper's 1-D Jacobi partition
// against the communicator-based 2-D extension at equal task counts: the
// 2-D tile moves O(N/sqrt(P)) halo data per side instead of O(N).
func BenchmarkJacobi2DPartitioning(b *testing.B) {
	cfg := impacc.Config{System: impacc.PSG(), Mode: impacc.IMPACC, Seed: 1}
	var t1, t2 float64
	for i := 0; i < b.N; i++ {
		r1, err := core.Run(cfg, apps.Jacobi(apps.JacobiConfig{N: 2048, Iters: 10, Style: apps.StyleUnified}))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := core.Run(cfg, apps.Jacobi2D(apps.Jacobi2DConfig{N: 2048, Iters: 10, Style: apps.StyleUnified}))
		if err != nil {
			b.Fatal(err)
		}
		t1, t2 = r1.Elapsed.Seconds(), r2.Elapsed.Seconds()
	}
	b.ReportMetric(t1*1e3, "1d-ms")
	b.ReportMetric(t2*1e3, "2d-ms")
}
