package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// leanArtifacts renders a run's report, metrics, and trace for byte-level
// comparison, with the content address blanked: Lean is hash-included (a
// lean and a non-lean submission are different cache entries), so Run.Hash
// is the one report field allowed to move.
func leanArtifacts(t *testing.T, cfg Config, prog Program) map[string][]byte {
	t.Helper()
	cfg.Trace = NewTracer()
	rep := mustRun(t, cfg, prog)
	if rep.Run.Hash == "" {
		t.Fatal("report carries no content address")
	}
	rep.Run.Hash = ""
	out := map[string][]byte{}
	var err error
	if out["report"], err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	out["metrics"] = rep.metricsJSON(t)
	var trace bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	out["trace"] = trace.Bytes()
	return out
}

// TestLeanNoOpOnSmallSystems: at or below leanRankThreshold ranks Lean
// changes nothing — every artifact byte matches the non-lean run, and only
// the content address moves.
func TestLeanNoOpOnSmallSystems(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true, JitterPct: 1, Seed: 2016}
	plain := leanArtifacts(t, cfg, chaosProgram(t))
	cfg.Lean = true
	lean := leanArtifacts(t, cfg, chaosProgram(t))
	for art, want := range plain {
		if !bytes.Equal(lean[art], want) {
			t.Errorf("lean changed %s on a small system (%d vs %d bytes)",
				art, len(lean[art]), len(want))
		}
	}
	base := Config{System: topo.Beacon(2), Seed: 2016}
	h0 := base.Hash()
	base.Lean = true
	if base.Hash() == h0 {
		t.Error("Lean did not move the content address")
	}
}

// leanProg is a minimal MPI workload for large generated systems: one
// compute burst and one allreduce per rank, enough to populate latency
// histograms and phases without per-rank heap pressure.
func leanProg(tk *Task) {
	buf := tk.Malloc(8)
	defer tk.Free(buf)
	tk.Busy(5 * sim.Microsecond)
	tk.Allreduce(buf, buf, 1, mpi.Float64, mpi.Sum)
}

// TestLeanAggregatesAboveThreshold: past leanRankThreshold ranks, lean
// collapses per-rank telemetry to rank="all" series and heartbeats to
// sorted phase counts, and refuses a buffered tracer.
func TestLeanAggregatesAboveThreshold(t *testing.T) {
	sys, err := topo.Preset("gemini:4,8,9") // 288 nodes > leanRankThreshold
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Nodes); n <= leanRankThreshold {
		t.Fatalf("test system has %d nodes, need > %d", n, leanRankThreshold)
	}
	var beats []Heartbeat
	cfg := Config{System: sys, Seed: 2016, Lean: true,
		Progress: &Progress{Every: 50 * sim.Microsecond, Emit: func(hb Heartbeat) { beats = append(beats, hb) }}}
	rep := mustRun(t, cfg, leanProg)

	for _, fam := range metricFamilies(t, rep) {
		if fam.Name != MPILatencyNs {
			continue
		}
		if len(fam.Series) == 0 {
			t.Fatal("no MPI latency series recorded")
		}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "rank" && l.Value != "all" {
					t.Fatalf("lean run kept per-rank series rank=%q", l.Value)
				}
			}
		}
		if len(fam.Series) > 32 {
			t.Fatalf("lean run recorded %d latency series; want O(ops), not O(ranks)", len(fam.Series))
		}
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats emitted")
	}
	for _, hb := range beats {
		if len(hb.Phases) != 0 {
			t.Fatalf("lean heartbeat carries %d per-rank phases", len(hb.Phases))
		}
	}
	var counted bool
	for _, hb := range beats {
		for i := 1; i < len(hb.PhaseCounts); i++ {
			if hb.PhaseCounts[i-1].Phase >= hb.PhaseCounts[i].Phase {
				t.Fatal("phase counts not sorted by phase")
			}
		}
		if len(hb.PhaseCounts) > 0 {
			counted = true
		}
	}
	if !counted {
		t.Fatal("no heartbeat carried phase counts")
	}

	cfg.Progress = nil
	cfg.Trace = NewTracer() // buffered: would hold the whole causal graph
	if _, err := NewRuntime(cfg); err == nil || !strings.Contains(err.Error(), "streaming tracer") {
		t.Fatalf("buffered tracer on a lean big run: err = %v, want streaming-tracer rejection", err)
	}
}
