// Command impacc-bench regenerates the paper's evaluation tables and
// figures (Table 1, Figures 2 and 5-15) plus the ablation studies.
//
// Usage:
//
//	impacc-bench -list
//	impacc-bench -exp fig9
//	impacc-bench -exp fig10,fig11 -quick
//	impacc-bench -exp all -csv results/csv
//
// Each experiment runs once: its table on stdout and its -csv records come
// from the same rows, and -metrics/-prof aggregate every successful leaf run
// of the selected experiments exactly once.
package main

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

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the benchmark driver; split from main so tests can invoke
// the full command without spawning a process.
func realMain(args []string, stdout, stderr io.Writer) int {
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

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "impacc-bench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "impacc-bench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "impacc-bench: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "impacc-bench: memprofile: %v\n", err)
			}
			f.Close()
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
				fmt.Fprintf(stderr, "impacc-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	limits, err := core.ParseLimits(*maxVTime, *maxEvents, *maxAlloc)
	if err != nil {
		fmt.Fprintf(stderr, "impacc-bench: %v\n", err)
		return 2
	}
	opt := bench.Options{Quick: *quick, ParSim: *parSim, FlightRing: *flight, Lean: *lean, Limits: limits}.WithJobs(*jobs)
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintf(stderr, "impacc-bench: chaos: %v\n", err)
			return 2
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
			fmt.Fprintf(stderr, "impacc-bench: %s: %v\n", r.Exp.ID, r.Err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s wall)\n\n", r.Wall.Round(time.Millisecond))
		if *csvDir != "" && r.CSV != nil {
			if err := writeCSV(*csvDir, r.Exp.ID, r.CSV); err != nil {
				fmt.Fprintf(stderr, "impacc-bench: csv %s: %v\n", r.Exp.ID, err)
				return 1
			}
		}
	}
	if *metrics != "" {
		if err := opt.Metrics.Snapshot(0).WriteFile(*metrics); err != nil {
			fmt.Fprintf(stderr, "impacc-bench: metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics -> %s\n", *metrics)
	}
	if *profile != "" {
		if err := writeProfile(*profile, opt.Prof.Snapshot(prof.DefaultTopSites)); err != nil {
			fmt.Fprintf(stderr, "impacc-bench: prof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "profile -> %s\n", *profile)
	}
	return 0
}

// writeProfile stores the aggregate profile at path: indented JSON when the
// path ends in .json, the human-readable table otherwise.
func writeProfile(path string, ap *prof.AggProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = ap.WriteJSON(f)
	} else {
		err = ap.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCSV stores an experiment's CSV records under dir/<id>.csv.
func writeCSV(dir, id string, recs [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
