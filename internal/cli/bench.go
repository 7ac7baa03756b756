package cli

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"impacc/internal/bench"
	"impacc/internal/core"
	"impacc/internal/fault"
	"impacc/internal/prof"
	"impacc/internal/telemetry"
)

// Bench is the impacc-bench command: it regenerates the selected paper
// experiments, prints their tables on stdout and writes the files its flags
// name. It returns the exit status: 0 on success, 1 on a run or file error,
// 2 on a bad flag or flag value (-h and an unknown experiment included).
func Bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impacc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		exp     = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick   = fs.Bool("quick", false, "shrink sweeps for a fast run")
		csvDir  = fs.String("csv", "", "also write <id>.csv files with the raw series into this directory")
		metrics = fs.String("metrics", "", "write the aggregate telemetry of every run to this file (Prometheus text if it ends in .prom, JSON otherwise)")
		profile = fs.String("prof", "", "trace every run and write the aggregate profile (critical path, top sites) to this file (JSON if it ends in .json, text otherwise)")
		jobs    = fs.Int("j", runtime.GOMAXPROCS(0), "run up to N simulations concurrently (output stays byte-identical)")
		parSim  = fs.Int("par-sim", 1, "worker threads inside each simulation's sharded engine (output stays byte-identical)")
		lean    = fs.Bool("lean", false, "memory-lean big-run mode on every leaf run: aggregate per-rank telemetry above 256 ranks (no-op on small systems)")
		flight  = fs.Int("flight-ring", 0, "arm the stall flight recorder on every leaf run with this per-shard ring depth; abnormal ends name the parked ranks (0 = off)")
		chaos   = fs.String("chaos", "", "deterministic fault injection applied to every run, seed:spec (see impacc-run -chaos)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (after GC) to this file on exit")

		maxVTime  = fs.String("max-vtime", "", "fail any leaf run past this much virtual time (e.g. 2s; 0 = unlimited)")
		maxEvents = fs.Int64("max-events", 0, "fail any leaf run past this many simulation events (0 = unlimited)")
		maxAlloc  = fs.Int64("max-alloc", 0, "fail any leaf run past this many task heap bytes (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "impacc-bench: "+format+"\n", a...)
		return code
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail(1, "cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(*memProf, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "impacc-bench: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range bench.All {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fail(2, "unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	limits, err := core.ParseLimits(*maxVTime, *maxEvents, *maxAlloc)
	if err != nil {
		return fail(2, "%v", err)
	}
	opt := bench.Options{Quick: *quick, ParSim: *parSim, FlightRing: *flight, Lean: *lean, Limits: limits}.WithJobs(*jobs)
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			return fail(2, "chaos: %v", err)
		}
		opt.Chaos = spec
	}
	if *metrics != "" {
		// One registry for every run of every selected experiment: the
		// harness merges each successful run's registry in, one at a time
		// under its fold lock, and merges commute, so counters and
		// histograms aggregate byte-identically for any -j.
		opt.Metrics = telemetry.NewRegistry()
	}
	if *profile != "" {
		// One aggregate for every run, folded the same way.
		opt.Prof = prof.NewAggregate()
	}
	// Experiments run through the worker pool (up to -j simulations at once)
	// with buffered output, then print in canonical order: the bytes on
	// stdout are identical for any -j.
	for _, r := range bench.RunMany(selected, opt) {
		fmt.Fprintf(stdout, "==== %s: %s ====\n", r.Exp.ID, r.Exp.Title)
		stdout.Write(r.Output)
		if r.Err != nil {
			return fail(1, "%s: %v", r.Exp.ID, r.Err)
		}
		fmt.Fprintf(stdout, "(%s wall)\n\n", r.Wall.Round(time.Millisecond))
		if *csvDir != "" && r.CSV != nil {
			if err := writeCSV(*csvDir, r.Exp.ID, r.CSV); err != nil {
				return fail(1, "csv %s: %v", r.Exp.ID, err)
			}
		}
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, opt.Metrics.Snapshot(0)); err != nil {
			return fail(1, "metrics: %v", err)
		}
		fmt.Fprintf(stdout, "metrics -> %s\n", *metrics)
	}
	if *profile != "" {
		if err := writeProfile(*profile, opt.Prof.Snapshot(prof.DefaultTopSites)); err != nil {
			return fail(1, "prof: %v", err)
		}
		fmt.Fprintf(stdout, "profile -> %s\n", *profile)
	}
	return 0
}

// writeCSV stores an experiment's CSV records under dir/<id>.csv.
func writeCSV(dir, id string, recs [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, id+".csv"), func(w io.Writer) error {
		return csv.NewWriter(w).WriteAll(recs)
	})
}
