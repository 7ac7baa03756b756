package telemetry_test

import (
	"bytes"
	"testing"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
)

// TestPoolReuseMatchesFresh: registries recycled through a Pool from a
// sharded run into a single-engine one and back (titan:4 -> psg -> titan:4)
// export the same -metrics bytes, JSON and Prometheus, as fresh ones.
func TestPoolReuseMatchesFresh(t *testing.T) {
	systems := []string{"titan:4", "psg", "titan:4"}
	run := func(pool *telemetry.Pool) [][]byte {
		var out [][]byte
		for _, name := range systems {
			sys, err := topo.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Run(core.Config{System: sys, Mode: core.IMPACC, Seed: 5, JitterPct: 1, MetricsPool: pool},
				apps.Jacobi(apps.JacobiConfig{N: 256, Iters: 3, Style: apps.StyleUnified}))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var js, prom bytes.Buffer
			if err := rep.Metrics.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if err := rep.Metrics.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			out = append(out, js.Bytes(), prom.Bytes())
		}
		return out
	}
	fresh, pooled := run(nil), run(&telemetry.Pool{})
	for i := range fresh {
		if !bytes.Equal(fresh[i], pooled[i]) {
			t.Errorf("%s run (export %d): pooled registries differ from fresh ones", systems[i/2], i%2)
		}
	}
}
