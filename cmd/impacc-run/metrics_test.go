package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/device"
	"impacc/internal/msg"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
)

// metricFamily is a family of the JSON metrics export, decoded.
type metricFamily struct {
	Name   string
	Series []struct {
		Labels     []struct{ Key, Value string }
		Value      int64
		GaugeValue float64 `json:"gauge_value"`
		Count      uint64
		Sum        int64
	}
}

// family returns the named family of snap's JSON export, or nil.
func family(t *testing.T, snap *telemetry.Snapshot, name string) *metricFamily {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dec struct{ Families []metricFamily }
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	for i := range dec.Families {
		if dec.Families[i].Name == name {
			return &dec.Families[i]
		}
	}
	return nil
}

// jacobiReport executes one seeded jacobi run and returns its report.
func jacobiReport(t *testing.T) *core.Report {
	t.Helper()
	cfg := core.Config{
		System: topo.Beacon(2), Mode: core.IMPACC,
		Backed: true, Seed: 2016, JitterPct: 1,
	}
	prog := apps.Jacobi(apps.JacobiConfig{N: 128, Iters: 3, Style: apps.StyleUnified})
	rep, err := core.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestMetricsDeterminism runs the same seeded configuration twice and
// requires byte-identical snapshots in both export formats: the registry is
// keyed by virtual time, so any divergence is a simulation nondeterminism
// bug.
func TestMetricsDeterminism(t *testing.T) {
	var runs [2]struct{ js, prom bytes.Buffer }
	for i := range runs {
		rep := jacobiReport(t)
		if rep.Metrics == nil {
			t.Fatal("report has no metrics snapshot")
		}
		if err := rep.Metrics.WriteJSON(&runs[i].js); err != nil {
			t.Fatal(err)
		}
		if err := rep.Metrics.WritePrometheus(&runs[i].prom); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0].js.Bytes(), runs[1].js.Bytes()) {
		t.Error("JSON snapshots differ between identical seeded runs")
	}
	if !bytes.Equal(runs[0].prom.Bytes(), runs[1].prom.Bytes()) {
		t.Error("Prometheus snapshots differ between identical seeded runs")
	}
	if runs[0].js.Len() == 0 || runs[0].prom.Len() == 0 {
		t.Fatal("empty metrics export")
	}
}

// TestMetricsContents cross-checks the snapshot against the run report:
// utilization gauges lie in [0,1], kernel histogram counts equal the
// report's kernel count, copy histogram totals equal the copied bytes, and
// the hub counter families match the hub stats.
func TestMetricsContents(t *testing.T) {
	rep := jacobiReport(t)
	snap := rep.Metrics

	util := family(t, snap, topo.LinkUtilization)
	if util == nil || len(util.Series) == 0 {
		t.Fatal("no link utilization gauges")
	}
	for _, s := range util.Series {
		if s.GaugeValue < 0 || s.GaugeValue > 1 {
			t.Errorf("utilization %v out of [0,1]: %v", s.Labels, s.GaugeValue)
		}
	}

	dev := rep.TotalDev()
	kh := family(t, snap, device.KernelDurationNs)
	if kh == nil {
		t.Fatal("no kernel duration histograms")
	}
	var kernels uint64
	for _, s := range kh.Series {
		kernels += s.Count
	}
	if kernels != uint64(dev.KernelCount) {
		t.Errorf("kernel histogram count = %d, report says %d", kernels, dev.KernelCount)
	}

	ch := family(t, snap, device.CopyBytes)
	if ch == nil {
		t.Fatal("no copy size histograms")
	}
	var copied int64
	for _, s := range ch.Series {
		copied += s.Sum
	}
	wantCopied := dev.HtoDBytes + dev.DtoHBytes + dev.DtoDBytes + dev.HtoHBytes
	if copied != wantCopied {
		t.Errorf("copy histogram bytes = %d, report says %d", copied, wantCopied)
	}

	hub := rep.TotalHub()
	for fam, want := range map[string]uint64{
		msg.IntraMsgsTotal:   hub.IntraMsgs,
		msg.FusedCopiesTotal: hub.FusedCopies,
		msg.NetOutTotal:      hub.NetOut,
	} {
		f := family(t, snap, fam)
		if f == nil {
			t.Errorf("missing hub counter family %q", fam)
			continue
		}
		var got uint64
		for _, s := range f.Series {
			got += uint64(s.Value)
		}
		if got != want {
			t.Errorf("%s total = %d, hub stats say %d", fam, got, want)
		}
	}

	mpiF := family(t, snap, core.MPILatencyNs)
	if mpiF == nil || len(mpiF.Series) == 0 {
		t.Fatal("no MPI latency histograms")
	}
	ranks := map[string]bool{}
	for _, s := range mpiF.Series {
		for _, l := range s.Labels {
			if l.Key == "rank" {
				ranks[l.Value] = true
			}
		}
	}
	if len(ranks) != rep.NTasks {
		t.Errorf("MPI histograms cover %d ranks, want %d", len(ranks), rep.NTasks)
	}
	for r := range ranks {
		if _, err := strconv.Atoi(r); err != nil {
			t.Errorf("bad rank label %q", r)
		}
	}
}
