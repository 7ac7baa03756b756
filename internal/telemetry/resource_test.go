package telemetry_test

import (
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
	snap := e.Metrics.Snapshot(int64(e.Now()))
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
		i := slices.IndexFunc(snap.Families, func(f telemetry.FamilySnap) bool { return f.Name == c.family })
		if i < 0 || len(snap.Families[i].Series) != 2 {
			t.Fatalf("%s: no family with two series in %+v", c.family, snap.Families)
		}
		var ss *telemetry.SeriesSnap
		for j, s := range snap.Families[i].Series {
			if s.Labels[0] == (telemetry.Label{Key: "resource", Value: c.resource}) {
				ss = &snap.Families[i].Series[j]
			}
		}
		got := float64(ss.Value) + ss.GaugeValue
		if got != c.value || ss.LastNs != c.lastNs {
			t.Errorf("%s{resource=%s} = %v at %d, want %v at %d", c.family, c.resource, got, ss.LastNs, c.value, c.lastNs)
		}
	}
}
