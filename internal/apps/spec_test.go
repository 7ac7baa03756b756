package apps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"impacc/internal/core"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// compileOK compiles s on the PSG preset and fails the test on error.
func compileOK(t *testing.T, s Spec) *Run {
	t.Helper()
	r, err := Compile(s, topo.PSG())
	if err != nil {
		t.Fatalf("Compile(%+v): %v", s, err)
	}
	return r
}

// TestCompileStyle: each style name selects its style, and an empty style
// follows the mode (unified under IMPACC, async under legacy).
func TestCompileStyle(t *testing.T) {
	for _, c := range []struct {
		mode, style string
		want        Style
	}{
		{"impacc", "sync", StyleSync},
		{"impacc", "async", StyleAsync},
		{"impacc", "unified", StyleUnified},
		{"impacc", "", StyleUnified},
		{"legacy", "", StyleAsync},
		{"legacy", "sync", StyleSync},
	} {
		r := compileOK(t, Spec{App: "dgemm", Mode: c.mode, Style: c.style, N: 64})
		if want := fmt.Sprintf("style=%d;", c.want); !strings.Contains(r.Identity, want) {
			t.Errorf("mode %s style %q: identity %q, want %s", c.mode, c.style, r.Identity, want)
		}
	}
	if _, err := Compile(Spec{App: "dgemm", Mode: "impacc", Style: "turbo"}, topo.PSG()); err == nil ||
		!strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown style: err = %v", err)
	}
}

// TestCompileEPClasses: every class in EPClasses compiles by name; a
// backed run executes a sample of the pairs.
func TestCompileEPClasses(t *testing.T) {
	for _, name := range []string{"S", "W", "A", "B", "C", "D", "E", "64xE"} {
		r := compileOK(t, Spec{App: "ep", Mode: "impacc", Class: name})
		if !strings.Contains(r.Identity, ";class="+name+";shift=0;") {
			t.Errorf("class %s: identity %q", name, r.Identity)
		}
	}
	r := compileOK(t, Spec{App: "ep", Mode: "impacc", Class: "S", Backed: true})
	if !strings.Contains(r.Identity, ";shift=12;") || !r.Config.Backed {
		t.Errorf("backed EP: identity %q, backed %t", r.Identity, r.Config.Backed)
	}
	if _, err := Compile(Spec{App: "ep", Mode: "impacc", Class: "Z"}, topo.PSG()); err == nil {
		t.Fatal("unknown EP class must fail")
	}
}

// TestCompileLiteral: Compile passes explicit values through unchanged —
// impacc-run's "-iters 0" stays 0 — while WithDefaults fills omitted ones.
func TestCompileLiteral(t *testing.T) {
	r := compileOK(t, Spec{App: "jacobi", Mode: "impacc", N: 0, Iters: 0})
	if r.Identity != "app=jacobi;style=2;n=0;iters=0;verify=false" || r.Config.Seed != 0 {
		t.Errorf("literal: identity %q seed %d", r.Identity, r.Config.Seed)
	}
	r = compileOK(t, Spec{App: "jacobi"}.WithDefaults())
	if r.Identity != "app=jacobi;style=2;n=1024;iters=10;verify=false" || r.Config.Seed != 2016 ||
		r.Config.Mode != core.IMPACC {
		t.Errorf("defaults: identity %q seed %d mode %v", r.Identity, r.Config.Seed, r.Config.Mode)
	}
	if d := (Spec{}).WithDefaults(); d != Defaults {
		t.Errorf("zero spec with defaults = %+v, want %+v", d, Defaults)
	}
}

// TestCompileRejects: bad input fails with an error naming the offending
// field or value, never a run that silently ignores it.
func TestCompileRejects(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{App: "jacobi", Mode: "impacc", Tasks: -4}, "tasks"},
		{Spec{App: "jacobi", Mode: "impacc", N: -1}, "n must"},
		{Spec{App: "jacobi", Mode: "impacc", Iters: -1}, "iters"},
		{Spec{App: "lulesh", Mode: "impacc", Edge: -8}, "edge"},
		{Spec{App: "lulesh", Mode: "impacc", Steps: -1}, "steps"},
		{Spec{App: "jacobi", Mode: "hybrid"}, "hybrid"},
		{Spec{App: "jacobi"}, "mode"},
		{Spec{App: "nonsense", Mode: "impacc"}, "nonsense"},
		{Spec{App: "jacobi", Mode: "impacc", Devices: "quantum"}, "quantum"},
		{Spec{App: "jacobi", Mode: "impacc", Chaos: "garbage"}, ""},
		{Spec{App: "jacobi", Mode: "impacc", ProgressEvery: "0us"}, "progress_every"},
		{Spec{App: "jacobi", Mode: "impacc", ProgressEvery: "soon"}, "progress_every"},
	} {
		_, err := Compile(c.spec, topo.PSG())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%+v) = %v, want an error containing %q", c.spec, err, c.want)
		}
	}
}

// TestHeapLimitSameAtEveryWorkerCount: sixteen Titan shards allocate
// concurrently, yet the task-heap cap names the same crossing allocation
// on every run, at every worker count, and with heartbeats splitting the
// windows.
func TestHeapLimitSameAtEveryWorkerCount(t *testing.T) {
	r := compileOK(t, Spec{App: "jacobi", Mode: "impacc", N: 1024, Iters: 2})
	const want = "task 4: core: task heap limit exceeded: 4325376 + 540672 bytes > cap 4326376"
	for _, c := range []struct {
		par   int
		beats sim.Dur
	}{{1, 0}, {8, 0}, {8, sim.Microsecond / 10}} {
		cfg := r.Config
		cfg.System = topo.Titan(16)
		cfg.Limits.MaxAllocBytes = 4326376
		cfg.Parallel = c.par
		if c.beats > 0 {
			cfg.Progress = &core.Progress{Every: c.beats, Emit: func(core.Heartbeat) {}}
		}
		for i := 0; i < 10; i++ {
			if _, err := core.Run(cfg, r.Program); err == nil || err.Error() != want {
				t.Fatalf("par-sim %d beats %v run %d: %v, want %q", c.par, c.beats, i, err, want)
			}
		}
	}
}

// FuzzCompile drives the job-spec boundary the way impacc-serve does:
// strict JSON decode, defaults, compile. Any input must yield a run or an
// error, never a panic. The system is fixed to a small preset so the
// fuzzer cannot ask for a huge machine.
func FuzzCompile(f *testing.F) {
	for _, s := range []string{
		`{"system":"psg","app":"jacobi"}`,
		`{"system":"beacon:2","app":"jacobi","n":256,"iters":3,"mode":"legacy","style":"sync"}`,
		`{"system":"psg","app":"ep","class":"64xE","backed":true,"verify":true}`,
		`{"system":"titan:8","app":"lulesh","edge":8,"steps":2,"lean":true,"par_sim":4}`,
		`{"system":"hetero","app":"dgemm","devices":"nvidia","tasks":2,"seed":9}`,
		`{"system":"titan:4","app":"jacobi","chaos":"7:degrade=*:4,rdmaflap=1:2ms:500us","progress_every":"250us"}`,
		`{"app":"jacobi","tasks":-4}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s Spec
		if err := dec.Decode(&s); err != nil {
			return
		}
		r, err := Compile(s.WithDefaults(), topo.PSG())
		if err != nil {
			return
		}
		if r.Program == nil || r.Identity == "" {
			t.Fatalf("Compile(%+v) succeeded without a program", s)
		}
	})
}

// TestChaosTimeoutOnRecycledRequests runs Jacobi on eight Titan nodes under
// receive deadlines that every receive meets. A completed receive's
// deadline outlives its request, whose record later receives reuse: the
// run succeeds only if a stale deadline leaves the reused record alone.
func TestChaosTimeoutOnRecycledRequests(t *testing.T) {
	for _, c := range []struct{ style, timeout string }{
		{"sync", "500us"}, {"async", "500us"}, {"sync", "100us"},
	} {
		s := Spec{System: "titan:8", App: "jacobi", Style: c.style, N: 256, Iters: 20,
			Chaos: "7:timeout=" + c.timeout}
		r, err := Compile(s.WithDefaults(), topo.Titan(8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(r.Config, r.Program); err != nil {
			t.Errorf("style %s, timeout %s: %v", c.style, c.timeout, err)
		}
	}
}
