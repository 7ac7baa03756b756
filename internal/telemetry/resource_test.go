package telemetry_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// TestResourceMonitor: a used sim.FIFOResource snapshots as its four
// sim_resource_* series, each stamped at the virtual time its total last
// changed.
func TestResourceMonitor(t *testing.T) {
	e := sim.NewEngine()
	r := e.NewFIFOResource("n0/pcie0")
	e.NewFIFOResource("n0/idle") // never used: four zero series
	// Occupations (wait, occupy) of (0, 100) at t=0, (40, 100) at t=60 and
	// (10, 50) at t=190.
	for _, u := range []struct{ at, occupy sim.Dur }{{0, 100}, {60, 100}, {190, 50}} {
		e.Spawn("user", func(p *sim.Proc) {
			p.Sleep(u.at)
			r.Use(p, u.occupy, 0)
		})
	}
	if err := sim.NewShardGroup([]*sim.Engine{e}, 0, 1).Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Metrics.Snapshot(int64(e.Now())).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Families []family }
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family   string
		resource string
		value    float64
		lastNs   int64
	}{
		{telemetry.ResourceBusyNs, "n0/pcie0", 250, 190},
		{telemetry.ResourceWaitNs, "n0/pcie0", 50, 190},
		{telemetry.ResourceUses, "n0/pcie0", 3, 190},
		{telemetry.ResourcePeakBacklogNs, "n0/pcie0", 40, 60},
		{telemetry.ResourceBusyNs, "n0/idle", 0, 0},
		{telemetry.ResourcePeakBacklogNs, "n0/idle", 0, 0},
	} {
		i := slices.IndexFunc(snap.Families, func(f family) bool { return f.Name == c.family })
		if i < 0 || len(snap.Families[i].Series) != 2 {
			t.Fatalf("%s: no family with two series in %+v", c.family, snap.Families)
		}
		var ss *series
		for j, s := range snap.Families[i].Series {
			if s.Labels[0] == (label{Key: "resource", Value: c.resource}) {
				ss = &snap.Families[i].Series[j]
			}
		}
		got := ss.Value + ss.GaugeValue
		if got != c.value || ss.LastNs != c.lastNs {
			t.Errorf("%s{resource=%s} = %v at %d, want %v at %d", c.family, c.resource, got, ss.LastNs, c.value, c.lastNs)
		}
	}
}

// family, series and label decode the JSON export's families and series.
type family struct {
	Name   string
	Series []series
}

type series struct {
	Labels     []label
	LastNs     int64   `json:"last_ns"`
	Value      float64 `json:"value"`
	GaugeValue float64 `json:"gauge_value"`
}

type label struct{ Key, Value string }
