package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"impacc/internal/core"
	"impacc/internal/msg"
	"impacc/internal/topo"
)

// modes are simulated in this order in every pair of reps.
var modes = [2]core.Mode{core.IMPACC, core.Legacy}

func modeName(m core.Mode) string {
	if m == core.IMPACC {
		return "impacc"
	}
	return "legacy"
}

// outcome is what one simulation produced: the deterministic counts the
// per-layer metrics report and the digest the golden file pins.
type outcome struct {
	ElapsedUs float64      `json:"virt_elapsed_us"`
	Events    uint64       `json:"events"`
	Shards    int          `json:"shards"`
	Hub       msg.Stats    `json:"hub"`
	Device    deviceCounts `json:"device"`
	// Digest is the SHA-256 of the JSON report with Run, Metrics and Prof
	// blanked: it covers simulated outcomes, not telemetry bytes or the
	// config-hash scheme.
	Digest string `json:"digest"`
}

type deviceCounts struct {
	Kernels   int64 `json:"kernels"`
	HtoD      int64 `json:"htod"`
	DtoH      int64 `json:"dtoh"`
	DtoD      int64 `json:"dtod"`
	HtoH      int64 `json:"htoh"`
	CopyBytes int64 `json:"copy_bytes"`
}

func (d deviceCounts) copies() int64 { return d.HtoD + d.DtoH + d.DtoD + d.HtoH }

func outcomeOf(rep *core.Report, events uint64) (outcome, error) {
	r := *rep
	r.Run, r.Metrics, r.Prof = core.RunInfo{}, nil, nil
	data, err := json.Marshal(&r)
	if err != nil {
		return outcome{}, fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	dev := rep.TotalDev()
	return outcome{
		ElapsedUs: float64(rep.Elapsed) / 1e3,
		Events:    events,
		Shards:    rep.Run.Shards,
		Hub:       rep.TotalHub(),
		Device: deviceCounts{
			Kernels: dev.KernelCount,
			HtoD:    dev.HtoDCount, DtoH: dev.DtoHCount, DtoD: dev.DtoDCount, HtoH: dev.HtoHCount,
			CopyBytes: dev.HtoDBytes + dev.DtoHBytes + dev.DtoDBytes + dev.HtoHBytes,
		},
		Digest: hex.EncodeToString(sum[:]),
	}, nil
}

// goStats reads the Go runtime's cumulative allocation and CPU counters.
type goStats struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// rep is one timed simulation: Preset, NewRuntime, Execute, and encoding of
// the report and the telemetry snapshot. Times are raw seconds.
type rep struct {
	mode    core.Mode
	calibMs float64
	setup   float64 // topo.Preset + core.NewRuntime
	wall    float64 // topo.Preset through telemetry.write
	// cost is the runtime counters' change over exactly the timed calls.
	cost goStats
	out  outcome
	err  error
}

// layer names the benchmark's spans around each layer entry point.
const (
	spanPreset  = "topo.Preset"
	spanNewRT   = "core.NewRuntime"
	spanExecute = "Runtime.Execute"
	spanReport  = "report.encode"
	spanTelem   = "telemetry.write"
)

// runRep simulates w once in mode. With a recorder it also records spans
// under parent, all tagged with repID.
func runRep(w workload, mode core.Mode, prog core.Program, seed uint64, rec *spanRecorder, parent int, repID string) rep {
	mn := modeName(mode)
	repSpan := rec.begin("rep", repID, mn, parent)
	defer rec.end(repSpan)
	r := rep{mode: mode}
	g0 := readGoStats()
	t0 := time.Now()
	sys, err := topo.Preset(w.system)
	if err != nil {
		r.err = err
		return r
	}
	t1 := time.Now()
	rt, err := core.NewRuntime(core.Config{
		System: sys, Mode: mode, MaxTasks: w.ranks, Seed: seed, JitterPct: 1,
		Parallel: w.parallel, Lean: w.lean,
	})
	if err != nil {
		r.err = err
		return r
	}
	t2 := time.Now()
	report, err := rt.Execute(prog)
	if err != nil {
		r.err = err
		return r
	}
	t3 := time.Now()
	// The report is encoded without its telemetry snapshot, which
	// telemetry.write encodes on its own, so the two spans do not overlap.
	bare := *report
	bare.Metrics = nil
	if err := json.NewEncoder(io.Discard).Encode(&bare); err != nil {
		r.err = fmt.Errorf("encode report: %w", err)
		return r
	}
	t4 := time.Now()
	if err := report.Metrics.WriteJSON(io.Discard); err != nil {
		r.err = fmt.Errorf("write telemetry: %w", err)
		return r
	}
	t5 := time.Now()
	g1 := readGoStats()

	rec.record(spanPreset, repID, mn, repSpan, t0, t1)
	rec.record(spanNewRT, repID, mn, repSpan, t1, t2)
	rec.record(spanExecute, repID, mn, repSpan, t2, t3)
	rec.record(spanReport, repID, mn, repSpan, t3, t4)
	rec.record(spanTelem, repID, mn, repSpan, t4, t5)
	r.setup = t2.Sub(t0).Seconds()
	r.wall = t5.Sub(t0).Seconds()
	r.cost = goStats{
		allocBytes: g1.allocBytes - g0.allocBytes,
		allocObjs:  g1.allocObjs - g0.allocObjs,
		gcCPU:      g1.gcCPU - g0.gcCPU,
		totalCPU:   g1.totalCPU - g0.totalCPU,
	}
	r.out, r.err = outcomeOf(report, rt.Events())
	return r
}

// options configure one benchmark run.
type options struct {
	seed uint64
	// seconds is how long each workload's timed loop runs after warm-up;
	// minPairs is the fewest IMPACC+Legacy pairs it times regardless.
	seconds  float64
	minPairs int
	// trace alternates traced and untraced pairs and derives the per-layer
	// times from the traced pairs' spans, recorded into rec.
	trace bool
	rec   *spanRecorder
	// golden holds the expected outcome per "workload/mode"; nil checks
	// only that reps agree with each other.
	golden map[string]outcome
}

// result is one workload's samples, keyed by metric name.
type result struct {
	workload          string
	attempted, failed int
	samples           map[string][]float64
	// firstFailure describes the first failed simulation, for diagnostics.
	firstFailure string
}

func (res *result) add(name string, v float64) { res.samples[name] = append(res.samples[name], v) }

// check counts one simulation and decides whether it failed: an error, a
// golden mismatch, or an outcome that differs from this mode's first one.
func (res *result) check(r rep, key string, opt options, ref map[core.Mode]outcome) bool {
	res.attempted++
	fail := func(format string, args ...any) bool {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = key + ": " + fmt.Sprintf(format, args...)
		}
		return false
	}
	if r.err != nil {
		return fail("%v", r.err)
	}
	if opt.golden != nil {
		want, ok := opt.golden[key]
		if !ok {
			return fail("no golden entry")
		}
		if r.out != want {
			return fail("outcome %+v differs from golden %+v", r.out, want)
		}
	}
	if first, ok := ref[r.mode]; !ok {
		ref[r.mode] = r.out
	} else if r.out != first {
		return fail("outcome differs between reps: %+v vs %+v", r.out, first)
	}
	return true
}

// runWorkload measures w: a warm-up rep per mode, then IMPACC+Legacy pairs
// back to back until opt.seconds have passed and at least opt.minPairs
// pairs ran. One goroutine drives the loop (a closed loop with one client).
func runWorkload(w workload, opt options) *result {
	res := &result{workload: w.name, samples: map[string][]float64{}}
	progs := map[core.Mode]core.Program{}
	for _, m := range modes {
		progs[m] = w.program(opt.seed, m)
	}
	ref := map[core.Mode]outcome{}
	for _, m := range modes {
		res.check(runRep(w, m, progs[m], opt.seed, nil, -1, ""), w.name+"/"+modeName(m), opt, ref)
	}

	wlSpan := opt.rec.begin("workload", w.name, "", -1)
	var cpuGC, cpuTotal float64
	var pairWall [2][]float64 // normalized pair walls: [0] untraced, [1] traced
	traced := map[string]tracedRep{}
	start := time.Now()
	calib := calibrate(opt.rec, w.name, wlSpan)
	for pair := 0; pair < opt.minPairs || time.Since(start).Seconds() < opt.seconds; pair++ {
		var rec *spanRecorder
		if opt.trace && pair%2 == 0 {
			rec = opt.rec
		}
		var wall, setup, peak float64
		var alloc uint64
		ok := true
		for _, m := range modes {
			key := w.name + "/" + modeName(m)
			repID := key + "/" + strconv.Itoa(pair)
			resetPeakRSS()
			r := runRep(w, m, progs[m], opt.seed, rec, wlSpan, repID)
			peak = max(peak, peakRSSMB())
			// Each rep is normalized by the mean of the calibrations just
			// before and just after it, which tracks the host's speed during
			// the rep more closely than either alone.
			next := calibrate(opt.rec, w.name, wlSpan)
			r.calibMs, calib = (calib+next)/2, next
			if !res.check(r, key, opt, ref) {
				ok = false
				continue
			}
			wall += normalize(r.wall, r.calibMs)
			setup += normalize(r.setup, r.calibMs)
			alloc += r.cost.allocBytes
			cpuGC += r.cost.gcCPU
			cpuTotal += r.cost.totalCPU
			mn := modeName(m)
			res.add("go.allocs_per_event."+mn, float64(r.cost.allocObjs)/float64(r.out.Events))
			res.add("go.bytes_per_event."+mn, float64(r.cost.allocBytes)/float64(r.out.Events))
			addCounts(res, mn, r.out)
			if rec != nil {
				traced[repID] = tracedRep{scale: calibRefMs / r.calibMs, out: r.out}
				continue
			}
			res.add(mn+"_wall_s", normalize(r.wall, r.calibMs))
			res.add("host.calib_ms", r.calibMs)
			res.add("host.raw_wall_s."+mn, r.wall)
		}
		if !ok {
			continue
		}
		if rec != nil {
			pairWall[1] = append(pairWall[1], wall)
			continue
		}
		pairWall[0] = append(pairWall[0], wall)
		// Pair-level samples keep the two modes' different set-up and
		// memory needs from making the median flip between them.
		res.add("setup_s", setup/2)
		res.add("alloc_mb", float64(alloc)/1e6)
		res.add("peak_rss_mb", peak)
	}
	opt.rec.end(wlSpan)

	// The runtime updates its CPU classes when a GC cycle ends; reps too
	// small to finish one report no GC time.
	gcFrac := 0.0
	if cpuTotal > 0 {
		gcFrac = cpuGC / cpuTotal
	}
	res.add("go.gc_cpu_frac", gcFrac)
	res.add("fail_ratio", float64(res.failed)/float64(res.attempted))
	if opt.trace {
		addLayerTimes(res, opt.rec.spans, traced)
		if len(pairWall[0]) > 0 && len(pairWall[1]) > 0 {
			res.add("trace.overhead_frac",
				summarize(pairWall[1]).Median/summarize(pairWall[0]).Median-1)
		}
	}
	return res
}

// addCounts records one rep's deterministic counts.
func addCounts(res *result, mn string, o outcome) {
	res.add("sim.events."+mn, float64(o.Events))
	res.add("sim.shards", float64(o.Shards))
	res.add("msg.intra."+mn, float64(o.Hub.IntraMsgs))
	res.add("msg.net."+mn, float64(o.Hub.NetOut))
	res.add("msg.fused."+mn, float64(o.Hub.FusedCopies))
	res.add("msg.aliased."+mn, float64(o.Hub.Aliases))
	res.add("msg.rdma."+mn, float64(o.Hub.RDMADirect))
	res.add("msg.staged."+mn, float64(o.Hub.Staged))
	res.add("device.kernels."+mn, float64(o.Device.Kernels))
	res.add("device.copies."+mn, float64(o.Device.copies()))
	res.add("device.copy_mb."+mn, float64(o.Device.CopyBytes)/1e6)
	res.add("virt.elapsed_us."+mn, o.ElapsedUs)
}

// tracedRep is what addLayerTimes needs to know about one traced rep.
type tracedRep struct {
	scale float64 // calibRefMs / the rep's calibration
	out   outcome
}

// addLayerTimes derives the per-layer times from the self times of the
// traced reps' spans, normalized by each rep's calibration.
func addLayerTimes(res *result, spans []span, traced map[string]tracedRep) {
	self := selfTimes(spans)
	for i, sp := range spans {
		tr, ok := traced[sp.Rep]
		if !ok {
			continue
		}
		v := self[i].Seconds() * tr.scale
		switch sp.Name {
		case spanPreset:
			res.add("topo.preset_ms", v*1e3)
		case spanNewRT:
			res.add("core.new_runtime_ms", v*1e3)
		case spanExecute:
			msgs := tr.out.Hub.IntraMsgs + tr.out.Hub.NetOut
			res.add("core.execute_s."+sp.Mode, v)
			res.add("sim.events_per_s."+sp.Mode, float64(tr.out.Events)/v)
			res.add("msg.ns_per_msg."+sp.Mode, v*1e9/float64(max(1, msgs)))
		case spanReport:
			res.add("core.report_encode_ms", v*1e3)
		case spanTelem:
			res.add("telemetry.snapshot_write_ms", v*1e3)
		}
	}
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS, so the next peakRSSMB covers one rep.
func resetPeakRSS() {
	// Best effort: without the reset the peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
