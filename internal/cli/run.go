package cli

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
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

// runFlags are impacc-run's parsed flags: the run itself as an apps.Spec,
// and what to write about it.
type runFlags struct {
	spec                                                    apps.Spec
	trace, profile, report, metrics, traceStream, flightRec string
	progressEvery, progress, maxVTime                       string
	flightRing                                              int
	maxEvents, maxAlloc                                     int64
}

// Run is the impacc-run command: it runs one bundled application on a
// simulated system, prints the report on stdout and writes the files its
// flags name. It returns the exit status: 0 on success or -h, 1 on a run or
// file error, 2 on a bad flag.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impacc-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runFlags
	fs.StringVar(&o.spec.App, "app", "jacobi", "application: dgemm, ep, jacobi, lulesh")
	fs.StringVar(&o.spec.System, "system", "psg", "system: psg, beacon:N, titan:N, hetero, fattree:k, dragonfly:g,a,p, gemini:X,Y,Z, or a .json file")
	fs.StringVar(&o.spec.Mode, "mode", apps.Defaults.Mode, "runtime: impacc or legacy")
	fs.StringVar(&o.spec.Style, "style", "", "programming style: sync, async, unified (default: unified for impacc, async for legacy)")
	fs.IntVar(&o.spec.Tasks, "tasks", 0, "cap the task count (0 = one per accelerator)")
	fs.StringVar(&o.spec.Devices, "devices", "", "IMPACC_ACC_DEVICE_TYPE selection, e.g. nvidia|xeonphi")
	fs.IntVar(&o.spec.N, "n", apps.Defaults.N, "problem size (matrix/mesh edge)")
	fs.IntVar(&o.spec.Iters, "iters", apps.Defaults.Iters, "jacobi iterations")
	fs.StringVar(&o.spec.Class, "class", apps.Defaults.Class, "EP class: S W A B C D E 64xE")
	fs.IntVar(&o.spec.Edge, "edge", apps.Defaults.Edge, "lulesh per-task mesh edge")
	fs.IntVar(&o.spec.Steps, "steps", apps.Defaults.Steps, "lulesh steps")
	fs.BoolVar(&o.spec.Verify, "verify", false, "verify results against serial references (forces -backed)")
	fs.BoolVar(&o.spec.Backed, "backed", false, "attach real storage (compute genuine data)")
	fs.Uint64Var(&o.spec.Seed, "seed", apps.Defaults.Seed, "random seed")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome-trace timeline (view in Perfetto) to this file")
	fs.StringVar(&o.profile, "prof", "", "write an mpiP-style profile (critical path, imbalance, top sites) to this file (JSON if it ends in .json, text otherwise)")
	fs.StringVar(&o.report, "report", "", "write the full run report as JSON to this file")
	fs.StringVar(&o.metrics, "metrics", "", "write the run's telemetry snapshot to this file (Prometheus text if it ends in .prom, JSON otherwise)")
	fs.StringVar(&o.spec.Chaos, "chaos", "", "deterministic fault injection, seed:spec (e.g. '7:degrade=*:4,rdmaflap=1:2ms:500us,straggle=0:1.5')")
	fs.IntVar(&o.spec.ParSim, "par-sim", 1, "worker threads driving the sharded simulation engine (wall-clock only; any value produces byte-identical output)")
	fs.BoolVar(&o.spec.Lean, "lean", false, "memory-lean big-run mode: aggregate per-rank telemetry and heartbeats above 256 ranks, require streaming traces (-trace-stream); no-op on small systems")

	fs.StringVar(&o.progressEvery, "progress-every", "", "emit a progress heartbeat every this much virtual time (e.g. 1ms); content is deterministic for any -par-sim value")
	fs.StringVar(&o.progress, "progress", "", "write heartbeats as JSON lines to this file (default stderr)")
	fs.StringVar(&o.traceStream, "trace-stream", "", "stream trace records to this file as JSON lines while the run executes (bounded memory; read it back for analysis with prof.ReadStream); mutually exclusive with -trace/-prof")
	fs.StringVar(&o.flightRec, "flight-recorder", "", "arm the stall flight recorder and write its dump (recent events per shard + parked processes) to this file if the run ends abnormally")
	fs.IntVar(&o.flightRing, "flight-ring", 64, "per-shard depth of the flight recorder's recent-event ring")

	fs.StringVar(&o.maxVTime, "max-vtime", "", "fail the run past this much virtual time (e.g. 2s, 500ms; 0 = unlimited)")
	fs.Int64Var(&o.maxEvents, "max-events", 0, "fail the run past this many simulation events (0 = unlimited)")
	fs.Int64Var(&o.maxAlloc, "max-alloc", 0, "fail the run past this many task heap bytes (0 = unlimited)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "impacc-run: %v\n", err)
		return 1
	}
	return 0
}

// run executes the run the flags describe; the error is the one line
// impacc-run prints before it exits 1.
func (o *runFlags) run(stdout, stderr io.Writer) error {
	sys, err := parseSystem(o.spec.System)
	if err != nil {
		return err
	}
	run, err := apps.Compile(o.spec, sys)
	if err != nil {
		return err
	}
	cfg := run.Config
	if cfg.Limits, err = core.ParseLimits(o.maxVTime, o.maxEvents, o.maxAlloc); err != nil {
		return err
	}
	var streamFile *os.File
	if o.traceStream != "" {
		if o.trace != "" || o.profile != "" {
			// A streaming tracer ships records as windows close and keeps
			// nothing in memory, so there is no graph left to render a
			// Chrome trace or profile from at run end.
			return fmt.Errorf("-trace-stream is mutually exclusive with -trace and -prof (analyze the stream post-hoc)")
		}
		if streamFile, err = os.Create(o.traceStream); err != nil {
			return err
		}
		defer streamFile.Close()
		cfg.Trace = core.NewStreamTracer(core.NewStreamWriter(streamFile))
	} else if o.trace != "" || o.profile != "" {
		cfg.Trace = core.NewTracer()
	}
	progressFlush := func() error { return nil }
	if o.progressEvery != "" {
		every, err := sim.ParseDur(o.progressEvery)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(stderr)
		var progressFile *os.File
		if o.progress != "" && o.progress != "-" {
			if progressFile, err = os.Create(o.progress); err != nil {
				return err
			}
			defer progressFile.Close()
			bw.Reset(progressFile)
		}
		cfg.Progress = &core.Progress{Every: every, Emit: core.NewHeartbeatWriter(bw)}
		progressFlush = bw.Flush
		if progressFile != nil {
			progressFlush = func() error { return cmp.Or(bw.Flush(), progressFile.Close()) }
		}
	} else if o.progress != "" {
		return fmt.Errorf("-progress requires -progress-every")
	}
	if o.flightRec != "" {
		cfg.FlightRing = o.flightRing
	}

	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return err
	}
	rep, runErr := rt.Execute(run.Program)
	// Observers finish regardless of how the run ended: heartbeats flush,
	// and a streamed trace gets its end record (the stream stays a valid,
	// analyzable artifact even for a failed run).
	if err := progressFlush(); err != nil {
		return err
	}
	if streamFile != nil {
		var makespan sim.Time
		if rep != nil {
			makespan = sim.Time(rep.Elapsed)
		}
		if err := cmp.Or(cfg.Trace.CloseStream(makespan), streamFile.Close()); err != nil {
			return err
		}
	}
	if runErr != nil {
		if st := rt.Stall(); st != nil && o.flightRec != "" {
			if err := writeFile(o.flightRec, st.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "impacc-run: flight recorder (%s, parked: %s) -> %s\n",
				st.Reason, strings.Join(st.ParkedRanks(), " "), o.flightRec)
		}
		return runErr
	}
	rep.Print(stdout)
	fmt.Fprintf(stdout, "  per-task: comm max %v, kernel mean %v\n", rep.MaxComm(), rep.MeanKernel())
	if o.traceStream != "" {
		fmt.Fprintf(stdout, "  trace stream -> %s\n", o.traceStream)
	}
	if o.trace != "" {
		if err := writeFile(o.trace, cfg.Trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace: %d spans -> %s\n", cfg.Trace.Len(), o.trace)
	}
	if o.profile != "" {
		if err := writeProfile(o.profile, rep.Prof); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  profile: %d sites -> %s\n", len(rep.Prof.Sites), o.profile)
	}
	if o.report != "" {
		if err := writeFile(o.report, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  report -> %s\n", o.report)
	}
	if o.metrics != "" {
		if err := writeMetrics(o.metrics, rep.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  metrics: %d families -> %s\n", rep.Metrics.NumFamilies(), o.metrics)
	}
	return nil
}
