package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"impacc/internal/apps"
	"impacc/internal/core"
	"impacc/internal/topo"
)

// TestMetricsGolden pins the -metrics bytes, JSON and Prometheus text, of
// sharded Jacobi runs as impacc-run makes them, so a change to how the
// shard registries are built or merged must leave every byte as it was:
//   - titan:8 under CI's chaos spec: the lazily registered fault and
//     resilience counters, on every shard;
//   - lean gemini:4,2,2: generated-topology link utilization and hub
//     records across 16 shards;
//   - lean gemini:8,8,5 (320 ranks, above the lean threshold): rank="all"
//     series that every shard holds and the merge folds. Its files are
//     megabytes, so the golden holds their SHA-256 digests.
//
// Run with -update to rewrite the files under testdata/metrics/.
func TestMetricsGolden(t *testing.T) {
	const chaos = "7:degrade=*:4,rdmaflap=1:2ms:500us,stall=0:0.3:150us,straggle=0:1.5"
	runs := []struct {
		name   string
		spec   apps.Spec
		digest bool
	}{
		{"titan8-chaos", apps.Spec{System: "titan:8", App: "jacobi", N: 256, Iters: 4, Chaos: chaos}, false},
		{"gemini422-lean", apps.Spec{System: "gemini:4,2,2", App: "jacobi", N: 256, Iters: 4, Lean: true}, false},
		{"gemini885-lean", apps.Spec{System: "gemini:8,8,5", App: "jacobi", N: 640, Iters: 2, Lean: true}, true},
	}
	dir := filepath.Join("testdata", "metrics")
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			sys, err := topo.Preset(r.spec.System)
			if err != nil {
				t.Fatal(err)
			}
			spec := r.spec.WithDefaults()
			spec.ParSim = 2
			run, err := apps.Compile(spec, sys)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Run(run.Config, run.Program)
			if err != nil {
				t.Fatal(err)
			}
			var js, prom bytes.Buffer
			if err := rep.Metrics.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if err := rep.Metrics.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if r.digest {
				sums := fmt.Sprintf("%x  metrics.json\n%x  metrics.prom\n", sha256.Sum256(js.Bytes()), sha256.Sum256(prom.Bytes()))
				core.CheckGolden(t, filepath.Join(dir, r.name+".sha256"), []byte(sums))
				return
			}
			core.CheckGolden(t, filepath.Join(dir, r.name+".json"), js.Bytes())
			core.CheckGolden(t, filepath.Join(dir, r.name+".prom"), prom.Bytes())
		})
	}
}
