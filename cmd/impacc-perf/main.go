// Command impacc-perf measures how fast the simulator runs, end to end and
// layer by layer, on four seeded workloads. Every workload simulates one
// program under both IMPACC and the MPI+OpenACC baseline, checks each
// simulation against committed golden digests, and reports wall time, set-up
// time, allocation and peak memory, plus per-layer counts and (with -trace)
// per-layer times from spans around each layer entry point.
//
//	go run . -seed 2016                       # all workloads
//	go run . -workload p2p-psg -seconds 10    # one workload
//	go run . -trace spans.json                # traced run: per-layer times
//	go run . -update-golden                   # rewrite golden.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef declares one reported metric. A name ending in ".m" expands to
// one metric per mode. traced metrics come only from a traced run.
type metricDef struct {
	name, unit string
	traced     bool
}

var endToEnd = []metricDef{
	{name: "impacc_wall_s", unit: "s"},
	{name: "legacy_wall_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = expandModes([]metricDef{
	{name: "topo.preset_ms", unit: "ms", traced: true},
	{name: "core.new_runtime_ms", unit: "ms", traced: true},
	{name: "core.execute_s.m", unit: "s", traced: true},
	{name: "core.report_encode_ms", unit: "ms", traced: true},
	{name: "telemetry.snapshot_write_ms", unit: "ms", traced: true},
	{name: "sim.events.m", unit: "count"},
	{name: "sim.events_per_s.m", unit: "1/s", traced: true},
	{name: "sim.shards", unit: "count"},
	{name: "msg.intra.m", unit: "count"},
	{name: "msg.net.m", unit: "count"},
	{name: "msg.fused.m", unit: "count"},
	{name: "msg.aliased.m", unit: "count"},
	{name: "msg.rdma.m", unit: "count"},
	{name: "msg.staged.m", unit: "count"},
	{name: "msg.ns_per_msg.m", unit: "ns", traced: true},
	{name: "device.kernels.m", unit: "count"},
	{name: "device.copies.m", unit: "count"},
	{name: "device.copy_mb.m", unit: "MB"},
	{name: "go.allocs_per_event.m", unit: "1/event"},
	{name: "go.bytes_per_event.m", unit: "B/event"},
	{name: "go.gc_cpu_frac", unit: "ratio"},
	{name: "virt.elapsed_us.m", unit: "us"},
	{name: "host.calib_ms", unit: "ms"},
	{name: "host.raw_wall_s.m", unit: "s"},
	{name: "trace.overhead_frac", unit: "ratio", traced: true},
	{name: "fail_ratio", unit: "ratio"},
})

// allMetrics lists every metric in the order tables print them.
var allMetrics = append(append([]metricDef(nil), endToEnd...), perLayer...)

func expandModes(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		base, perMode := strings.CutSuffix(d.name, ".m")
		if !perMode {
			out = append(out, d)
			continue
		}
		for _, m := range modes {
			out = append(out, metricDef{name: base + "." + modeName(m), unit: d.unit, traced: d.traced})
		}
	}
	return out
}

// goldenSeed is the seed golden.json was recorded at.
const goldenSeed = 2016

//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed    uint64             `json:"seed"`
	Entries map[string]outcome `json:"entries"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impacc-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all)")
		seed    = fs.Uint64("seed", goldenSeed, "seed the workloads' inputs and the simulations are built from")
		seconds = fs.Float64("seconds", 15, "seconds each workload's timed loop runs after its warm-up")
		trace   = fs.String("trace", "0", "traced run writing spans to this Chrome-trace file; 0 = untraced, 1 = impacc-perf-trace.json")
		out     = fs.String("out", "", "also write every metric's median, quartiles and sample count as JSON to this file")
		update  = fs.Bool("update-golden", false, "simulate each workload once per mode at seed 2016 and rewrite golden.json in the working directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "impacc-perf: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *update {
		if err := updateGolden(selected, *seed); err != nil {
			fmt.Fprintf(stderr, "impacc-perf: %v\n", err)
			return 1
		}
		return 0
	}

	opt := options{seed: *seed, seconds: *seconds, minPairs: 3}
	tracePath := *trace
	switch tracePath {
	case "0", "":
		tracePath = ""
	case "1":
		tracePath = "impacc-perf-trace.json"
	}
	if tracePath != "" {
		opt.trace, opt.minPairs, opt.rec = true, 6, newSpanRecorder()
	}
	if *seed == goldenSeed {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			fmt.Fprintf(stderr, "impacc-perf: golden.json: %v\n", err)
			return 1
		}
		opt.golden = g.Entries
	}

	var results []*result
	for _, w := range selected {
		res := runWorkload(w, opt)
		printResult(stdout, res)
		if res.firstFailure != "" {
			fmt.Fprintf(stderr, "impacc-perf: %s: %d of %d simulations failed; first: %s\n",
				w.name, res.failed, res.attempted, res.firstFailure)
		}
		results = append(results, res)
	}
	if tracePath != "" {
		if err := writeFile(tracePath, func(w io.Writer) error { return writeChromeTrace(w, opt.rec.spans) }); err != nil {
			fmt.Fprintf(stderr, "impacc-perf: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(w io.Writer) error { return writeDetail(w, opt, results) }); err != nil {
			fmt.Fprintf(stderr, "impacc-perf: %v\n", err)
			return 1
		}
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	line, correct := summaryLine(results, defs)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// printResult writes one workload's metrics as a table: name, median, unit,
// sample count, and the quartiles and tail where the samples allow them.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s: %d simulations, %d failed\n", res.workload, res.attempted, res.failed)
	for _, d := range allMetrics {
		v, ok := res.samples[d.name]
		if !ok {
			continue
		}
		s := summarize(v)
		fmt.Fprintf(w, "  %-30s %14.6g %-7s n=%-4d", d.name, s.Median, d.unit, s.N)
		if s.N >= 4 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", s.Q1, s.Q3)
		}
		if s.TailP > 0 {
			fmt.Fprintf(w, " p%g=%.6g", s.TailP, s.Tail)
		}
		fmt.Fprintln(w)
	}
}

// summaryLine renders the closing JSON object. With several workloads the
// metric names are prefixed "workload/".
func summaryLine(results []*result, defs []metricDef) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, res := range results {
		line.Attempted += res.attempted
		line.Failed += res.failed
		for _, d := range defs {
			v, ok := res.samples[d.name]
			if !ok {
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = res.workload + "/" + d.name
			}
			line.Metrics[key] = value{summarize(v).Median, d.unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain structs and finite floats always marshal
	}
	return string(data), line.Correct
}

// writeDetail writes every metric's full summary for every workload.
func writeDetail(w io.Writer, opt options, results []*result) error {
	type metric struct {
		Unit string `json:"unit"`
		summary
	}
	type wl struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	doc := struct {
		Seed       uint64        `json:"seed"`
		Seconds    float64       `json:"seconds"`
		Traced     bool          `json:"traced"`
		CalibRefMs float64       `json:"calib_ref_ms"`
		Workloads  map[string]wl `json:"workloads"`
	}{opt.seed, opt.seconds, opt.trace, calibRefMs, map[string]wl{}}
	for _, res := range results {
		x := wl{res.attempted, res.failed, map[string]metric{}}
		for _, d := range allMetrics {
			if v, ok := res.samples[d.name]; ok {
				x.Metrics[d.name] = metric{d.unit, summarize(v)}
			}
		}
		doc.Workloads[res.workload] = x
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// updateGolden simulates every workload once per mode and rewrites
// golden.json, keeping the entries of workloads it did not run.
func updateGolden(selected []workload, seed uint64) error {
	if seed != goldenSeed {
		return fmt.Errorf("-update-golden records seed %d only (got -seed %d)", goldenSeed, seed)
	}
	g := goldenFile{Seed: goldenSeed}
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Entries == nil {
		g.Entries = map[string]outcome{}
	}
	for _, w := range selected {
		for _, m := range modes {
			r := runRep(w, m, w.program(seed, m), seed, nil, -1, "")
			if r.err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, modeName(m), r.err)
			}
			g.Entries[w.name+"/"+modeName(m)] = r.out
		}
	}
	return writeFile("golden.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(g)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
