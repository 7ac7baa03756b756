// Package bench regenerates every table and figure of the paper's
// evaluation (§4): the system table, the behavioural figures (2, 5, 6, 7),
// the microbenchmarks (8, 9), the application studies (10-15), and ablation
// experiments for each IMPACC technique. Each experiment produces typed
// results (asserted by tests), prints the same rows/series the paper
// reports, and returns those rows as CSV records for plotting.
package bench

import (
	"fmt"
	"io"
	"strconv"

	"impacc/internal/core"
	"impacc/internal/fault"
	"impacc/internal/prof"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for CI/tests; full runs reproduce the paper's
	// parameter ranges.
	Quick bool
	// Metrics, when non-nil, aggregates the telemetry of every successful
	// run an experiment performs: runGated merges each run's registry in
	// (Merge is commutative, so parallel sweeps snapshot byte-identically
	// to serial ones).
	Metrics *telemetry.Registry
	// Prof, when non-nil, traces every run and folds the analyzed profile
	// of each successful one into the aggregate (Add is commutative too).
	Prof *prof.Aggregate
	// Chaos, when non-nil, applies the same deterministic fault-injection
	// spec to every run an experiment performs (each run instantiates a
	// fresh plan, so serial and parallel sweeps stay byte-identical).
	Chaos *fault.Spec
	// Limits caps every leaf run's resources (virtual time, events, task
	// heap). Hitting a cap is deterministic and fails the experiment with a
	// *sim.LimitError or *core.RunError.
	Limits core.Limits
	// ParSim sets every leaf run's intra-run simulation worker count
	// (core.Config.Parallel). Orthogonal to WithJobs, which runs whole sweep
	// points concurrently, ParSim parallelizes inside one simulation. Like
	// WithJobs it never changes a simulated byte.
	ParSim int
	// FlightRing, when positive, arms the per-shard stall flight recorder
	// (core.Config.FlightRing) on every leaf run; a run that ends
	// abnormally — cancelled, capped by Limits, deadlocked — decorates its
	// error with the parked ranks so a failed sweep names the stuck
	// processes instead of just the limit it hit.
	FlightRing int

	// Lean turns on the memory-lean big-run mode (core.Config.Lean) for
	// every leaf run: per-rank telemetry and heartbeat detail aggregate
	// above the rank threshold, bounding resident state on generated
	// large-scale systems.
	Lean bool

	// pool, when non-nil, bounds concurrent simulations (see WithJobs).
	pool *pool
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run prints the experiment's table to w and returns the same rows as
	// CSV records, header first; nil for the experiments with no tabular
	// form (table1, fig2).
	Run func(w io.Writer, opt Options) ([][]string, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"table1", "Table 1: target heterogeneous accelerator systems", runTable1},
	{"fig2", "Figure 2: automatic task-device mapping", runFig2},
	{"fig5", "Figure 4/5: synchronization styles timeline", runFig5},
	{"fig6", "Figure 6: message fusion for intra-node communications", runFig6},
	{"fig7", "Figure 7: node heap aliasing", runFig7},
	{"fig8", "Figure 8: NUMA-friendly task-CPU pinning", runFig8},
	{"fig9", "Figure 9: point-to-point communication bandwidth", runFig9},
	{"fig10", "Figure 10: DGEMM speedup", runSpeedups(Fig10)},
	{"fig11", "Figure 11: DGEMM execution time breakdown (PSG)", runFig11},
	{"fig12", "Figure 12: EP speedup", runSpeedups(Fig12)},
	{"fig13", "Figure 13: Jacobi speedup", runSpeedups(Fig13)},
	{"fig14", "Figure 14: Jacobi DtoD communication breakdown (PSG)", runFig14},
	{"fig15", "Figure 15: LULESH performance scaling", runSpeedups(Fig15)},
	{"ablation", "Ablations: each IMPACC technique on/off", runAblation},
	{"ext-2d", "Extension: 1-D vs 2-D Jacobi partitioning over communicators", runExt2D},
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baseCfg builds a run configuration: the one place where Options become
// a core.Config. Only the per-run tracer is left to runGated.
func baseCfg(opt Options, sys *topo.System, mode core.Mode, maxTasks int, backed bool) core.Config {
	return core.Config{
		System:     sys,
		Mode:       mode,
		MaxTasks:   maxTasks,
		Backed:     backed,
		Seed:       2016, // HPDC'16
		JitterPct:  1.0,
		Chaos:      opt.Chaos,
		Limits:     opt.Limits,
		Parallel:   opt.ParSim,
		FlightRing: opt.FlightRing,
		Lean:       opt.Lean,
	}
}

// elapsedOf runs prog (through the worker pool, if any) and returns the
// virtual elapsed time.
func elapsedOf(opt Options, cfg core.Config, prog core.Program) (sim.Dur, *core.Report, error) {
	rep, err := runGated(opt, cfg, prog)
	if err != nil {
		return 0, nil, err
	}
	return rep.Elapsed, rep, nil
}

// gbs converts (bytes, duration) to GB/s.
func gbs(bytes int64, d sim.Dur) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

// itoa and ftoa format CSV cells: integers (counts, bytes, nanoseconds) in
// decimal, measured values with six significant digits.
func itoa[T ~int | ~int64 | ~uint64](v T) string { return strconv.FormatInt(int64(v), 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// sizeLabel formats a transfer size like the paper's axes.
func sizeLabel(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// runTable1 prints the Table 1 configurations from the topology presets.
func runTable1(w io.Writer, opt Options) ([][]string, error) {
	systems := []*topo.System{topo.PSG(), topo.Beacon(32), topo.Titan(8192)}
	fmt.Fprintf(w, "%-22s %-14s %-16s %-14s\n", "System", "PSG", "Beacon", "Titan")
	row := func(name string, f func(s *topo.System) string) {
		fmt.Fprintf(w, "%-22s", name)
		for _, s := range systems {
			fmt.Fprintf(w, " %-15s", f(s))
		}
		fmt.Fprintln(w)
	}
	row("Nodes", func(s *topo.System) string { return fmt.Sprint(len(s.Nodes)) })
	row("CPU", func(s *topo.System) string { return s.Nodes[0].Sockets[0].Name })
	row("Sockets", func(s *topo.System) string { return fmt.Sprint(len(s.Nodes[0].Sockets)) })
	row("Accelerators/node", func(s *topo.System) string { return fmt.Sprint(len(s.Nodes[0].Devices)) })
	row("Accelerator", func(s *topo.System) string { return s.Nodes[0].Devices[0].Name })
	row("Acc memory (GB)", func(s *topo.System) string {
		return fmt.Sprint(s.Nodes[0].Devices[0].MemoryBytes >> 30)
	})
	row("PCIe GB/s", func(s *topo.System) string {
		return fmt.Sprintf("%.1f", s.Nodes[0].Devices[0].PCIe.GBs)
	})
	row("Interconnect", func(s *topo.System) string { return s.Nodes[0].NIC.Name })
	row("Net GB/s", func(s *topo.System) string { return fmt.Sprintf("%.1f", s.Nodes[0].NIC.Link.GBs) })
	row("THREAD_MULTIPLE", func(s *topo.System) string { return fmt.Sprint(s.ThreadMultiple) })
	return nil, nil
}

// Fig2Result is the mapping for one device-type selection.
type Fig2Result struct {
	Mask  topo.ClassMask
	Tasks []core.Placement
}

// Fig2 computes the Figure 2 mappings on the heterogeneous demo cluster.
func Fig2() []Fig2Result {
	sys := topo.HeteroDemo()
	masks := []topo.ClassMask{
		0, // acc_device_default
		topo.MaskOf(topo.NVIDIAGPU),
		topo.MaskOf(topo.CPUAccel),
		topo.MaskOf(topo.XeonPhi),
		topo.MaskOf(topo.NVIDIAGPU, topo.XeonPhi),
	}
	var out []Fig2Result
	for _, m := range masks {
		out = append(out, Fig2Result{Mask: m, Tasks: core.BuildMapping(sys, m, 0)})
	}
	return out
}

func runFig2(w io.Writer, opt Options) ([][]string, error) {
	sys := topo.HeteroDemo()
	for _, res := range Fig2() {
		fmt.Fprintf(w, "IMPACC_ACC_DEVICE_TYPE=%s -> %d tasks\n", res.Mask, len(res.Tasks))
		for rank, pl := range res.Tasks {
			dev := sys.Nodes[pl.Node].Devices[pl.Device]
			fmt.Fprintf(w, "  rank %2d -> node %d (%s) device %d (%s, %s)\n",
				rank, pl.Node, sys.Nodes[pl.Node].Name, pl.Device, dev.Name, dev.Class)
		}
	}
	return nil, nil
}
