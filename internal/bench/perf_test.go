package bench

import (
	"bytes"
	"testing"

	"impacc/internal/fault"
	"impacc/internal/telemetry"
)

// BenchmarkFig9SweepQuick times the full quick-mode Figure 9 bandwidth
// sweep end to end: 27 sweep points, each running two simulations (IMPACC
// and legacy). It exercises the engine hot path, the keyed message
// matching, and the task runtime together, so it tracks whole-system
// regressions that the internal/sim microbenchmarks cannot see.
func BenchmarkFig9SweepQuick(b *testing.B) {
	opt := Options{Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig9(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SweepQuickParallel is the same sweep through an 8-wide
// worker pool: it measures the pool overhead on one core and the speedup
// on many.
func BenchmarkFig9SweepQuickParallel(b *testing.B) {
	opt := Options{Quick: true}.WithJobs(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig9(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFig13ParSim times the quick Figure 13 Jacobi scaling study — whose
// sweep points run on multi-node systems, so every simulation is sharded —
// with a given intra-run worker count.
func benchFig13ParSim(b *testing.B, parSim int) {
	fig13, ok := ByID("fig13")
	if !ok {
		b.Fatal("fig13 not registered")
	}
	opt := Options{Quick: true, ParSim: parSim}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := fig13.Run(&buf, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13QuickParSim1 drives the sharded engines with one worker —
// the single-core no-regression reference for the PDES path.
func BenchmarkFig13QuickParSim1(b *testing.B) { benchFig13ParSim(b, 1) }

// BenchmarkFig13QuickParSim8 drives them with eight workers: wall-clock
// speedup on a multi-core host, coordination overhead on one core. The
// output bytes are identical either way.
func BenchmarkFig13QuickParSim8(b *testing.B) { benchFig13ParSim(b, 8) }

// runAllQuick executes every experiment through RunMany and returns the
// concatenated canonical output plus the aggregate telemetry as JSON.
func runAllQuick(t *testing.T, jobs int) ([]byte, []byte) {
	t.Helper()
	opt := Options{Quick: true, Metrics: telemetry.NewRegistry()}.WithJobs(jobs)
	var out bytes.Buffer
	for _, r := range RunMany(All, opt) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Exp.ID, r.Err)
		}
		out.WriteString("==== " + r.Exp.ID + " ====\n")
		out.Write(r.Output)
	}
	var snap bytes.Buffer
	if err := opt.Metrics.Snapshot(0).WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), snap.Bytes()
}

// TestParallelRunDeterminism is the PR's core guarantee: running the whole
// suite through an 8-wide worker pool twice produces byte-identical output
// and byte-identical aggregate metrics, both equal to a strictly serial
// run. Simulated time must never depend on scheduling of the host threads.
func TestParallelRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite three times")
	}
	serialOut, serialSnap := runAllQuick(t, 1)
	for round := 0; round < 2; round++ {
		out, snap := runAllQuick(t, 8)
		if !bytes.Equal(out, serialOut) {
			t.Fatalf("round %d: -j 8 output differs from serial", round)
		}
		if !bytes.Equal(snap, serialSnap) {
			t.Fatalf("round %d: -j 8 metrics snapshot differs from serial", round)
		}
	}
}

// TestChaosParallelDeterminism extends the determinism guarantee to fault
// injection: every run builds a fresh fault plan from the shared spec, so a
// chaotic sweep through an 8-wide pool is byte-identical to a serial one.
func TestChaosParallelDeterminism(t *testing.T) {
	spec, err := fault.ParseSpec("7:degrade=*:3,stall=0:0.4:150us,straggle=1:1.5,rdmaflap=0:2ms:400us")
	if err != nil {
		t.Fatal(err)
	}
	fig9, _ := ByID("fig9")
	run := func(jobs int) ([]byte, []byte) {
		opt := Options{Quick: true, Metrics: telemetry.NewRegistry(), Chaos: spec}.WithJobs(jobs)
		var out bytes.Buffer
		for _, r := range RunMany([]Experiment{fig9}, opt) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Exp.ID, r.Err)
			}
			out.Write(r.Output)
		}
		var snap bytes.Buffer
		if err := opt.Metrics.Snapshot(0).WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), snap.Bytes()
	}
	serialOut, serialSnap := run(1)
	parOut, parSnap := run(8)
	if !bytes.Equal(serialOut, parOut) {
		t.Fatal("chaotic -j 8 output differs from serial")
	}
	if !bytes.Equal(serialSnap, parSnap) {
		t.Fatal("chaotic -j 8 metrics snapshot differs from serial")
	}
	if !bytes.Contains(serialSnap, []byte(fault.InjectedTotal)) {
		t.Fatalf("chaotic sweep recorded no %s events", fault.InjectedTotal)
	}
}

// TestSweepDeterminism: how RunMany schedules a sweep never changes a
// byte, so a serial sweep, a -j 8 sweep and a -par-sim 8 sharded sweep all
// produce byte-identical output and byte-identical aggregate metrics.
func TestSweepDeterminism(t *testing.T) {
	fig13, ok := ByID("fig13")
	if !ok {
		t.Fatal("fig13 not registered")
	}
	run := func(jobs, parSim int) ([]byte, []byte) {
		opt := Options{Quick: true, ParSim: parSim, Metrics: telemetry.NewRegistry()}.WithJobs(jobs)
		var out bytes.Buffer
		for _, r := range RunMany([]Experiment{fig13}, opt) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Exp.ID, r.Err)
			}
			out.Write(r.Output)
		}
		var snap bytes.Buffer
		if err := opt.Metrics.Snapshot(0).WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), snap.Bytes()
	}
	serialOut, serialSnap := run(1, 1)
	for _, c := range []struct {
		name         string
		jobs, parSim int
	}{{"-j 8", 8, 1}, {"-par-sim 8", 1, 8}} {
		out, snap := run(c.jobs, c.parSim)
		if !bytes.Equal(out, serialOut) {
			t.Errorf("%s output differs from serial", c.name)
		}
		if !bytes.Equal(snap, serialSnap) {
			t.Errorf("%s metrics snapshot differs from serial", c.name)
		}
	}
}
