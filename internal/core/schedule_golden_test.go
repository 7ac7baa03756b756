package core_test

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/topo"
)

// TestScheduleDigests pins the event schedule of real workloads, not only
// their output bytes: the flight ring, armed above each run's event count,
// keeps every dispatch, and the golden holds per shard the dispatch count
// and a digest of the (kind, lp, at, seq) sequence, where kind is the
// resumed process's name or "fn" for a callback. A change that must keep
// every event stamp passes it unchanged; when it fails, the first line that
// differs names the shard whose schedule moved, and a rerun with the flight
// recorder prints that shard's events with process names.
//
// A second pass runs every workload with a tracer attached and must give
// the same lines: tracing moves no dispatch, and the run-time span check
// covers these workloads.
//
// Run with -update to rewrite testdata/schedule.sha256.
func TestScheduleDigests(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprint("traced=", traced), func(t *testing.T) {
			core.CheckGolden(t, filepath.Join("testdata", "schedule.sha256"), []byte(scheduleDigests(t, traced)))
		})
	}
}

// scheduleDigests runs TestScheduleDigests' workloads, each with a tracer
// when traced, and renders their golden lines.
func scheduleDigests(t *testing.T, traced bool) string {
	const ring = 1 << 13
	runs := []struct {
		name string
		spec apps.Spec
	}{
		{"jacobi-titan8-unified", apps.Spec{System: "titan:8", App: "jacobi", N: 512, Iters: 10, Style: "unified"}},
		{"jacobi-titan8-legacy-async", apps.Spec{System: "titan:8", App: "jacobi", N: 512, Iters: 10, Mode: "legacy", Style: "async"}},
		{"lulesh-titan8", apps.Spec{System: "titan:8", App: "lulesh", Edge: 16, Steps: 3}},
		{"copyfail-legacy-async", apps.Spec{System: "beacon:2", App: "jacobi", N: 256, Iters: 5, Mode: "legacy", Style: "async",
			Backed: true, Chaos: "7:copyfail=*:0.3"}},
	}
	var b strings.Builder
	for _, r := range runs {
		sys, err := topo.Preset(r.spec.System)
		if err != nil {
			t.Fatal(err)
		}
		run, err := apps.Compile(r.spec.WithDefaults(), sys)
		if err != nil {
			t.Fatal(err)
		}
		cfg := run.Config
		cfg.FlightRing = ring
		if traced {
			cfg.Trace = core.NewTracer()
		}
		rt, err := core.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Execute(run.Program)
		fmt.Fprintf(&b, "%s err=%v\n", r.name, err != nil)
		for _, sf := range rt.FlightShards() {
			if uint64(len(sf.Recent)) != sf.Events {
				t.Fatalf("%s: shard %d dispatched %d events, more than the %d-entry ring holds", r.name, sf.LP, sf.Events, ring)
			}
			h := sha256.New()
			for _, ev := range sf.Recent {
				fmt.Fprintf(h, "%s %d %d %d\n", ev.Kind, ev.LP, ev.AtNs, ev.Seq)
			}
			fmt.Fprintf(&b, "%s lp=%d events=%d %x\n", r.name, sf.LP, sf.Events, h.Sum(nil)[:12])
		}
	}
	return b.String()
}
