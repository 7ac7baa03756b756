package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"impacc/internal/fault"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// artifacts renders every observable output of a run — the report JSON, the
// telemetry snapshot, the Chrome trace, and the analyzed profile — for
// byte-level comparison.
func artifacts(t *testing.T, cfg Config, prog Program) map[string][]byte {
	t.Helper()
	cfg.Trace = NewTracer()
	rep := mustRun(t, cfg, prog)
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
	var prof bytes.Buffer
	if err := rep.Prof.WriteJSON(&prof); err != nil {
		t.Fatal(err)
	}
	out["profile"] = prof.Bytes()
	return out
}

// TestParallelByteIdentity is the determinism matrix for the sharded engine:
// {serial, 2 workers, 8 workers} × {healthy, chaotic} × two multi-node
// presets (plus a single-node preset for the degenerate one-shard path).
// Every artifact a run can produce must be byte-identical across worker
// counts — the property that lets impacc-serve coalesce serial and parallel
// submissions onto one content address. Run under -race in CI, this doubles
// as the data-race proof for the window barriers.
func TestParallelByteIdentity(t *testing.T) {
	spec, err := fault.ParseSpec("7:degrade=*:4,rdmaflap=1:2ms:500us,straggle=0:1.5")
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name string
		sys  func() *topo.System
	}{
		{"titan2", func() *topo.System { return topo.Titan(2) }},
		{"beacon2", func() *topo.System { return topo.Beacon(2) }},
		{"psg", topo.PSG}, // single node: one shard, serial window loop
	}
	for _, s := range systems {
		for _, chaos := range []*fault.Spec{nil, spec} {
			label := s.name + "/healthy"
			if chaos != nil {
				label = s.name + "/chaotic"
			}
			t.Run(label, func(t *testing.T) {
				cfg := Config{System: s.sys(), Mode: IMPACC, Backed: true,
					JitterPct: 1, Seed: 2016, Chaos: chaos}
				base := artifacts(t, cfg, chaosProgram(t))
				for _, workers := range []int{2, 8} {
					cfg.Parallel = workers
					got := artifacts(t, cfg, chaosProgram(t))
					for art, want := range base {
						if !bytes.Equal(got[art], want) {
							t.Errorf("par-sim %d: %s differs from serial (%d vs %d bytes)",
								workers, art, len(got[art]), len(want))
						}
					}
				}
			})
		}
	}
}

// TestParallelExcludedFromHash: Config.Parallel is a wall-clock knob, so it
// must not appear in the canonical encoding or perturb the content address.
func TestParallelExcludedFromHash(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Seed: 2016, JitterPct: 1}
	h0 := cfg.Hash()
	s0 := cfg.CanonicalString()
	for _, workers := range []int{1, 2, 8} {
		cfg.Parallel = workers
		if cfg.Hash() != h0 {
			t.Fatalf("Parallel=%d changed the config hash", workers)
		}
		if cfg.CanonicalString() != s0 {
			t.Fatalf("Parallel=%d changed the canonical encoding:\n%s", workers, cfg.CanonicalString())
		}
	}
}

// TestParallelLimitsStillApply: resource caps keep working under the sharded
// engine. The global event budget trips a *sim.LimitError for every worker
// count, and the error is byte-for-byte identical across worker counts: the
// group attributes the halt to the canonical (at, depth, lp, seq)-least
// event that exhausted the budget, independent of scheduling (DESIGN.md §12).
func TestParallelLimitsStillApply(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	cfg.Limits.MaxEvents = 2000
	var serialMsg string
	for _, workers := range []int{0, 1, 2, 8} {
		cfg.Parallel = workers
		_, err := Run(cfg, longProg(1000))
		var le *sim.LimitError
		if !errors.As(err, &le) || le.Resource != "events" || le.Limit != 2000 {
			t.Fatalf("workers=%d: Run = %v, want *sim.LimitError{events, 2000}", workers, err)
		}
		if serialMsg == "" {
			serialMsg = err.Error()
		} else if err.Error() != serialMsg {
			t.Fatalf("workers=%d halt diverges from serial:\n %s\n %s", workers, err, serialMsg)
		}
	}
}

// TestParallelCancel: Cancel still tears a parallel run down cleanly — a
// *sim.CancelError out of Execute — exactly like the serial engine
// (cancel_test.go covers that path).
func TestParallelCancel(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, Parallel: 2}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Fab.Engine(0).At(sim.Time(500*sim.Microsecond), rt.Cancel)
	_, err = rt.Execute(longProg(1000))
	var ce *sim.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Execute = %v, want *sim.CancelError", err)
	}
}
