package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"impacc/internal/core"
)

// tinyWorkloads are the four workloads shrunk to run in well under a second
// each; they exercise the same constructors and layers.
var tinyWorkloads = []workload{
	p2pWorkload("tiny-p2p", 20),
	jacobiWorkload("tiny-jacobi", "titan:4", 4, 64, 3, 1, false),
	luleshWorkload("tiny-lulesh", "titan:8", 8, 4, 2),
	jacobiWorkload("tiny-gemini", "gemini:2,2,2", 8, 64, 3, 2, true),
}

func TestTinyWorkloads(t *testing.T) {
	for _, traced := range []bool{false, true} {
		opt := options{seed: 7, minPairs: 2}
		if traced {
			opt.trace, opt.rec = true, newSpanRecorder()
		}
		for _, w := range tinyWorkloads {
			res := runWorkload(w, opt)
			if res.failed != 0 || res.attempted != 6 {
				t.Fatalf("%s: %d of %d failed (want 0 of 6): %s", w.name, res.failed, res.attempted, res.firstFailure)
			}
			if got := res.samples["fail_ratio"]; len(got) != 1 || got[0] != 0 {
				t.Errorf("%s: fail_ratio %v, want [0]", w.name, got)
			}
			var table bytes.Buffer
			printResult(&table, res)
			for _, d := range allMetrics {
				if d.traced && !traced {
					continue
				}
				if !hasRow(table.String(), d.name, d.unit) {
					t.Errorf("%s (traced %v): metric %s [%s] missing from:\n%s", w.name, traced, d.name, d.unit, table.String())
				}
			}
		}
	}
}

// hasRow reports whether table has a row for name with unit and a sample
// count.
func hasRow(table, name, unit string) bool {
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

func TestRepsAgree(t *testing.T) {
	for _, w := range tinyWorkloads {
		for _, m := range modes {
			prog := w.program(3, m)
			a := runRep(w, m, prog, 3, nil, -1, "")
			b := runRep(w, m, prog, 3, nil, -1, "")
			if a.err != nil || b.err != nil {
				t.Fatalf("%s/%s: %v, %v", w.name, modeName(m), a.err, b.err)
			}
			if a.out != b.out {
				t.Errorf("%s/%s: reps differ:\n%+v\n%+v", w.name, modeName(m), a.out, b.out)
			}
		}
	}
}

func TestParallelSameDigest(t *testing.T) {
	var digests []string
	for _, par := range []int{1, 2} {
		w := jacobiWorkload("tiny-gemini64", "gemini:4,4,4", 64, 128, 2, par, true)
		r := runRep(w, core.IMPACC, w.program(1, core.IMPACC), 1, nil, -1, "")
		if r.err != nil {
			t.Fatal(r.err)
		}
		digests = append(digests, r.out.Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest at Parallel 1 %s != Parallel 2 %s", digests[0], digests[1])
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if g.Seed != goldenSeed {
		t.Errorf("golden seed %d, want %d", g.Seed, goldenSeed)
	}
	for _, w := range workloads {
		for _, m := range modes {
			e, ok := g.Entries[w.name+"/"+modeName(m)]
			if !ok || len(e.Digest) != 64 || e.Events == 0 {
				t.Errorf("golden entry for %s/%s missing or empty: %+v", w.name, modeName(m), e)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestSummaryLine(t *testing.T) {
	res := &result{workload: "w", attempted: 4, failed: 0, samples: map[string][]float64{
		"impacc_wall_s": {3, 1, 2}, "setup_s": {0.5},
	}}
	line, ok := summaryLine([]*result{res}, endToEnd)
	if !ok {
		t.Fatal("want correct")
	}
	want := `{"correct":true,"attempted":4,"failed":0,"metrics":{"impacc_wall_s":{"value":2,"unit":"s"},"setup_s":{"value":0.5,"unit":"s"}}}`
	if line != want {
		t.Errorf("got  %s\nwant %s", line, want)
	}
	res.failed = 1
	if _, ok := summaryLine([]*result{res}, endToEnd); ok {
		t.Error("a failed simulation must make the run incorrect")
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want 2 and no result", code, out.String())
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same samples.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		sorted := append([]float64(nil), c.xs...)
		sort.Float64s(sorted)
		q1, q3 := quantile(sorted, 0.25), quantile(sorted, 0.75)
		if s.Median != c.m || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, s.Median, q3, c.q1, c.m, c.q3)
		}
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 || s.N != 4 {
		t.Errorf("even median: %+v", s)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("n=%d: got p%v %v, want p%v %v", c.n, p, ok, c.p, c.ok)
		}
		if beyond := float64(c.n) * (100 - p) / 100; ok && math.Round(beyond) < minBeyond {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.TailP != 90 || math.Abs(s.Tail-90.9) > 1e-9 {
		t.Errorf("100 samples: tail p%v = %v, want p90 = 90.9", s.TailP, s.Tail)
	}
	if s := summarize(xs[:30]); s.TailP != 0 || s.Tail != 0 {
		t.Errorf("30 samples must report no tail, got p%v", s.TailP)
	}
}

func TestNormalize(t *testing.T) {
	// A rep on a host running the kernel twice as slow as the reference
	// reports half its raw time; raw = normalized * calib / calibRefMs.
	if got := normalize(2.0, 2*calibRefMs); got != 1.0 {
		t.Errorf("normalize(2s, 2x ref) = %v, want 1", got)
	}
	if got := normalize(0.3, calibRefMs); got != 0.3 {
		t.Errorf("normalize at the reference = %v, want 0.3", got)
	}
	raw, calib := 0.42, 61.5
	if back := normalize(raw, calib) * calib / calibRefMs; math.Abs(back-raw) > 1e-12 {
		t.Errorf("undoing the normalization gave %v, want %v", back, raw)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(40), End: ms(70)},
		{Name: "b1", Parent: 2, Start: ms(45), End: ms(50)},
		// c and d overlap each other and d runs past its parent's end.
		{Name: "o", Parent: -1, Start: ms(200), End: ms(260)},
		{Name: "c", Parent: 4, Start: ms(210), End: ms(240)},
		{Name: "d", Parent: 4, Start: ms(230), End: ms(280)},
	}
	want := []time.Duration{ms(50), ms(20), ms(25), ms(5), ms(10), ms(30), ms(50)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	// Without overlap, a span's self time plus its children's self times
	// plus their descendants' equals its duration.
	if sum := got[0] + got[1] + got[2] + got[3]; sum != spans[0].End-spans[0].Start {
		t.Errorf("root subtree self times sum to %v, want %v", sum, spans[0].End-spans[0].Start)
	}
}

func TestChromeTrace(t *testing.T) {
	rec := newSpanRecorder()
	w := tinyWorkloads[0]
	opt := options{seed: 1, minPairs: 2, trace: true, rec: rec}
	if res := runWorkload(w, opt); res.failed != 0 {
		t.Fatal(res.firstFailure)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID, Parent int
				Rep        string
				SelfUs     float64 `json:"self_us"`
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// subtree[i] sums the self times of span i and all its descendants,
	// which must equal span i's duration.
	names := map[string]int{}
	subtree := make([]float64, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		for id := e.Args.ID; id >= 0; id = doc.TraceEvents[id].Args.Parent {
			subtree[id] += e.Args.SelfUs
		}
	}
	for _, n := range []string{"workload", "rep", "calibrate", spanPreset, spanNewRT, spanExecute, spanReport, spanTelem} {
		if names[n] == 0 {
			t.Errorf("no %q span in %v", n, names)
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("span %s has ph %q", e.Name, e.Ph)
		}
		if diff := e.Dur - subtree[e.Args.ID]; math.Abs(diff) > 1e-3*float64(len(doc.TraceEvents)) {
			t.Errorf("span %d %s: duration %vus != %vus of self time in its subtree", e.Args.ID, e.Name, e.Dur, subtree[e.Args.ID])
		}
	}
}
