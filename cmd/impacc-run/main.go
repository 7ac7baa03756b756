// Command impacc-run launches one of the bundled evaluation applications
// on a simulated system — the mpirun/aprun of the framework. Unlike
// mpirun, the user specifies nodes, not tasks: the runtime creates one
// task per accelerator automatically (paper §3.2).
//
// Examples:
//
//	impacc-run -app jacobi -system psg -n 1024 -iters 20
//	impacc-run -app dgemm -system beacon:4 -mode legacy -n 2048
//	impacc-run -app lulesh -system titan:27 -edge 16 -steps 5
//	impacc-run -app ep -system psg -class C
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

func parseSystem(s string) (*topo.System, error) {
	if strings.HasSuffix(s, ".json") {
		f, err := os.Open(s)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topo.LoadSystem(f)
	}
	return topo.Preset(s)
}

func main() {
	var (
		app     = flag.String("app", "jacobi", "application: dgemm, ep, jacobi, lulesh")
		system  = flag.String("system", "psg", "system: psg, beacon:N, titan:N, hetero, fattree:k, dragonfly:g,a,p, gemini:X,Y,Z, or a .json file")
		mode    = flag.String("mode", apps.Defaults.Mode, "runtime: impacc or legacy")
		style   = flag.String("style", "", "programming style: sync, async, unified (default: unified for impacc, async for legacy)")
		tasks   = flag.Int("tasks", 0, "cap the task count (0 = one per accelerator)")
		device  = flag.String("devices", "", "IMPACC_ACC_DEVICE_TYPE selection, e.g. nvidia|xeonphi")
		n       = flag.Int("n", apps.Defaults.N, "problem size (matrix/mesh edge)")
		iters   = flag.Int("iters", apps.Defaults.Iters, "jacobi iterations")
		class   = flag.String("class", apps.Defaults.Class, "EP class: S W A B C D E 64xE")
		edge    = flag.Int("edge", apps.Defaults.Edge, "lulesh per-task mesh edge")
		steps   = flag.Int("steps", apps.Defaults.Steps, "lulesh steps")
		verify  = flag.Bool("verify", false, "verify results against serial references (forces -backed)")
		backed  = flag.Bool("backed", false, "attach real storage (compute genuine data)")
		seed    = flag.Uint64("seed", apps.Defaults.Seed, "random seed")
		trace   = flag.String("trace", "", "write a Chrome-trace timeline (view in Perfetto) to this file")
		profile = flag.String("prof", "", "write an mpiP-style profile (critical path, imbalance, top sites) to this file (JSON if it ends in .json, text otherwise)")
		report  = flag.String("report", "", "write the full run report as JSON to this file")
		metrics = flag.String("metrics", "", "write the run's telemetry snapshot to this file (Prometheus text if it ends in .prom, JSON otherwise)")
		chaos   = flag.String("chaos", "", "deterministic fault injection, seed:spec (e.g. '7:degrade=*:4,rdmaflap=1:2ms:500us,straggle=0:1.5')")
		parSim  = flag.Int("par-sim", 1, "worker threads driving the sharded simulation engine (wall-clock only; any value produces byte-identical output)")
		lean    = flag.Bool("lean", false, "memory-lean big-run mode: aggregate per-rank telemetry and heartbeats above 256 ranks, require streaming traces (-trace-stream); no-op on small systems")

		progressEvery  = flag.String("progress-every", "", "emit a progress heartbeat every this much virtual time (e.g. 1ms); content is deterministic for any -par-sim value")
		progress       = flag.String("progress", "", "write heartbeats as JSON lines to this file (default stderr)")
		traceStream    = flag.String("trace-stream", "", "stream trace records to this file as JSON lines while the run executes (bounded memory; read it back for analysis with prof.ReadStream); mutually exclusive with -trace/-prof")
		streamBuffered = flag.Bool("trace-stream-buffered", false, "with -trace-stream: buffer records in memory and write the stream at run end; the bytes must match the streamed path exactly (equivalence checks, CI)")
		flightRec      = flag.String("flight-recorder", "", "arm the stall flight recorder and write its dump (recent events per shard + parked processes) to this file if the run ends abnormally")
		flightRing     = flag.Int("flight-ring", 64, "per-shard depth of the flight recorder's recent-event ring")

		maxVTime  = flag.String("max-vtime", "", "fail the run past this much virtual time (e.g. 2s, 500ms; 0 = unlimited)")
		maxEvents = flag.Int64("max-events", 0, "fail the run past this many simulation events (0 = unlimited)")
		maxAlloc  = flag.Int64("max-alloc", 0, "fail the run past this many task heap bytes (0 = unlimited)")
	)
	flag.Parse()

	sys, err := parseSystem(*system)
	fatal(err)

	run, err := apps.Compile(apps.Spec{
		App: *app, Mode: *mode, Style: *style, Tasks: *tasks, Devices: *device,
		N: *n, Iters: *iters, Class: *class, Edge: *edge, Steps: *steps,
		Backed: *backed, Verify: *verify, Seed: *seed, Chaos: *chaos,
		ParSim: *parSim, Lean: *lean,
	}, sys)
	fatal(err)
	cfg := run.Config
	cfg.Limits, err = core.ParseLimits(*maxVTime, *maxEvents, *maxAlloc)
	fatal(err)
	var streamFile *os.File
	if *traceStream != "" {
		if *trace != "" || *profile != "" {
			// A streaming tracer ships records as windows close and keeps
			// nothing in memory, so there is no graph left to render a
			// Chrome trace or profile from at run end.
			fatal(fmt.Errorf("-trace-stream is mutually exclusive with -trace and -prof (analyze the stream post-hoc)"))
		}
		streamFile, err = os.Create(*traceStream)
		fatal(err)
		if *streamBuffered {
			cfg.Trace = core.NewTracer()
		} else {
			cfg.Trace = core.NewStreamTracer(core.NewStreamWriter(streamFile))
		}
	} else if *trace != "" || *profile != "" {
		cfg.Trace = core.NewTracer()
	}
	var progressFlush func() error
	if *progressEvery != "" {
		every, err := sim.ParseDur(*progressEvery)
		fatal(err)
		out := os.Stderr
		if *progress != "" && *progress != "-" {
			f, err := os.Create(*progress)
			fatal(err)
			out = f
		}
		bw := bufio.NewWriter(out)
		cfg.Progress = &core.Progress{Every: every, Emit: core.NewHeartbeatWriter(bw)}
		progressFlush = bw.Flush
	} else if *progress != "" {
		fatal(fmt.Errorf("-progress requires -progress-every"))
	}
	if *flightRec != "" {
		cfg.FlightRing = *flightRing
	}

	rt, err := core.NewRuntime(cfg)
	fatal(err)
	rep, runErr := rt.Execute(run.Program)
	// Observers finish regardless of how the run ended: heartbeats flush,
	// and a streamed trace gets its end record (the stream stays a valid,
	// analyzable artifact even for a failed run).
	if progressFlush != nil {
		fatal(progressFlush())
	}
	if streamFile != nil {
		var makespan sim.Time
		if rep != nil {
			makespan = sim.Time(rep.Elapsed)
		}
		if *streamBuffered {
			fatal(cfg.Trace.WriteStream(streamFile, makespan))
		} else {
			fatal(cfg.Trace.CloseStream(makespan))
		}
		fatal(streamFile.Close())
	}
	if runErr != nil {
		if *flightRec != "" {
			if st := rt.Stall(); st != nil {
				f, err := os.Create(*flightRec)
				fatal(err)
				fatal(st.WriteJSON(f))
				fatal(f.Close())
				fmt.Fprintf(os.Stderr, "impacc-run: flight recorder (%s, parked: %s) -> %s\n",
					st.Reason, strings.Join(st.ParkedRanks(), " "), *flightRec)
			}
		}
		fatal(runErr)
	}
	rep.Print(os.Stdout)
	fmt.Printf("  per-task: comm max %v, kernel mean %v\n", rep.MaxComm(), rep.MeanKernel())
	if *traceStream != "" {
		fmt.Printf("  trace stream -> %s\n", *traceStream)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		fatal(err)
		fatal(cfg.Trace.WriteChromeTrace(f))
		fatal(f.Close())
		fmt.Printf("  trace: %d spans -> %s\n", cfg.Trace.Len(), *trace)
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		fatal(err)
		if strings.HasSuffix(*profile, ".json") {
			fatal(rep.Prof.WriteJSON(f))
		} else {
			fatal(rep.Prof.WriteText(f))
		}
		fatal(f.Close())
		fmt.Printf("  profile: %d sites -> %s\n", len(rep.Prof.Sites), *profile)
	}
	if *report != "" {
		f, err := os.Create(*report)
		fatal(err)
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		fatal(enc.Encode(rep))
		fatal(f.Close())
		fmt.Printf("  report -> %s\n", *report)
	}
	if *metrics != "" {
		fatal(rep.Metrics.WriteFile(*metrics))
		fmt.Printf("  metrics: %d families -> %s\n", len(rep.Metrics.Families), *metrics)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "impacc-run: %v\n", err)
		os.Exit(1)
	}
}
