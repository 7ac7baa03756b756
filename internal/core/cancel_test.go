package core

import (
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"impacc/internal/mpi"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// longProg keeps every task busy for iters rounds of compute + allreduce, so
// a run lasts long enough (in virtual time and event count) to cancel or cap
// mid-flight.
func longProg(iters int) Program {
	return func(tk *Task) {
		buf := tk.Malloc(8)
		defer tk.Free(buf)
		v := tk.Floats(buf, 1)
		for i := 0; i < iters; i++ {
			v[0] = float64(tk.Rank() + i)
			tk.Busy(10 * sim.Microsecond)
			tk.Allreduce(buf, buf, 1, mpi.Float64, mpi.Sum)
		}
	}
}

// waitGoroutines lets unwound sim goroutines finish exiting before counting.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestRuntimeCancelMidRun: a cancel arriving mid-run surfaces as
// *sim.CancelError and parks no goroutines — the contract impacc-serve's
// job killer depends on.
func TestRuntimeCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := Config{System: topo.Beacon(2), Backed: true}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic cancel instant: half a millisecond of virtual time in.
	rt.Fab.Engine(0).At(sim.Time(500*sim.Microsecond), rt.Cancel)
	_, err = rt.Execute(longProg(1000))
	var ce *sim.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Execute = %v, want *sim.CancelError", err)
	}
	waitGoroutines(t, baseline)
}

// TestCancelledRunResubmitsFresh: a run cancelled once leaves no residue —
// the same config re-run to completion produces the same report as a config
// that was never cancelled.
func TestCancelledRunResubmitsFresh(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	render := func() []byte {
		rep := mustRun(t, cfg, longProg(20))
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := render()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Fab.Engine(0).At(sim.Time(100*sim.Microsecond), rt.Cancel)
	if _, err := rt.Execute(longProg(20)); err == nil {
		t.Fatal("expected cancel error")
	}
	if got := render(); string(got) != string(want) {
		t.Fatal("re-run after a cancelled run diverged from the baseline report")
	}
}

// TestRuntimeCancelFromWallClock: Cancel is safe from a foreign goroutine at
// an arbitrary wall-clock instant (exercised under -race in CI). The result
// is either a CancelError or — if the run won the race — a clean report; both
// are valid, and either way no goroutines may leak.
func TestRuntimeCancelFromWallClock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		rt.Cancel()
	}()
	_, err = rt.Execute(longProg(5000))
	<-done
	var ce *sim.CancelError
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("Execute = %v, want nil or *sim.CancelError", err)
	}
	waitGoroutines(t, baseline)
}

func TestLimitsMaxEvents(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	cfg.Limits.MaxEvents = 2000
	_, err := Run(cfg, longProg(1000))
	var le *sim.LimitError
	if !errors.As(err, &le) || le.Resource != "events" {
		t.Fatalf("Run = %v, want *sim.LimitError{events}", err)
	}
}

func TestLimitsMaxVirtualTime(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	cfg.Limits.MaxVirtualTime = 200 * sim.Microsecond
	_, err := Run(cfg, longProg(1000))
	var le *sim.LimitError
	if !errors.As(err, &le) || le.Resource != "vtime" {
		t.Fatalf("Run = %v, want *sim.LimitError{vtime}", err)
	}
}

// TestLimitsMaxAllocBytes: passing the heap cap fails the task with a
// *RunError, and an armed flight recorder files its dump under it although
// the group itself drained cleanly.
func TestLimitsMaxAllocBytes(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 1, FlightRing: 16}
	cfg.Limits.MaxAllocBytes = 1 << 10
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Execute(func(tk *Task) {
		tk.Malloc(512)
		tk.Malloc(1024) // 512 + 1024 > 1 KiB cap
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Execute = %v, want *RunError", err)
	}
	if !strings.Contains(re.Error(), "heap limit") {
		t.Fatalf("error %q does not name the heap limit", re.Error())
	}
	if st := rt.Stall(); st == nil || st.Reason != "task-error" || st.Error != err.Error() || len(st.Shards) == 0 {
		t.Fatalf("stall = %+v, want reason task-error naming %q", st, err)
	}
}

// TestHeapCapStopsAllocatingTask: a Malloc loop that never yields fails at
// the allocation that passes the cap, before it is backed, on one shard
// (psg) and on two concurrent shards (titan:2), where the canonical
// crossing is shard 0's.
func TestHeapCapStopsAllocatingTask(t *testing.T) {
	const want = "task 0: core: task heap limit exceeded: 1048576 + 1024 bytes > cap 1048576"
	for _, c := range []struct {
		sys    *topo.System
		backed []int // per task
	}{{topo.PSG(), []int{1024, 0}}, {topo.Titan(2), []int{1024, 1024}}} {
		cfg := Config{System: c.sys, Backed: true, MaxTasks: 2, Parallel: 2}
		cfg.Limits.MaxAllocBytes = 1 << 20
		backed := make([]int, 2)
		_, err := Run(cfg, func(tk *Task) {
			for i := 0; i < 2048; i++ { // twice what the cap allows
				if tk.Floats(tk.Malloc(1<<10), 128) != nil {
					backed[tk.Rank()]++
				}
			}
		})
		if err == nil || err.Error() != want {
			t.Fatalf("%s: Run = %v, want %q", c.sys.Name, err, want)
		}
		if !slices.Equal(backed, c.backed) {
			t.Errorf("%s: backed allocations per task %v, want %v", c.sys.Name, backed, c.backed)
		}
	}
}

// TestHeapCapStopsAtBarrier: two nodes that each stay under the cap while
// their sum passes it stop at the window barrier after the crossing, well
// before either reaches the cap on its own.
func TestHeapCapStopsAtBarrier(t *testing.T) {
	cfg := Config{System: topo.Titan(2), Backed: true, Parallel: 2}
	cfg.Limits.MaxAllocBytes = 1 << 20
	backed := make([]int, 2)
	_, err := Run(cfg, func(tk *Task) {
		for i := 0; i < 2048; i++ {
			if tk.Floats(tk.Malloc(1<<10), 128) != nil {
				backed[tk.Rank()]++
			}
			tk.Compute(1e6)
		}
	})
	const want = "task 0: core: task heap limit exceeded: 1048576 + 1024 bytes > cap 1048576"
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
	if backed[0] > 520 || backed[1] > 520 {
		t.Errorf("backed allocations per task %v, want about 513 each", backed)
	}
}

// TestHeapErrorOutranksGroup: the heap-limit error is a task error, and
// like every task error it comes before the group's own error — here a
// cancel that lands after the crossing. The flight recorder files the run
// under the heap error too, not under the cancel.
func TestHeapErrorOutranksGroup(t *testing.T) {
	cfg := Config{System: topo.PSG(), Backed: true, MaxTasks: 2, FlightRing: 8}
	cfg.Limits.MaxAllocBytes = 1 << 10
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Fab.Engine(0).At(sim.Time(500*sim.Microsecond), rt.Cancel)
	_, err = rt.Execute(func(tk *Task) {
		if tk.Rank() == 0 {
			tk.Malloc(2 << 10)
		}
		for i := 0; i < 1000; i++ {
			tk.Compute(1e9)
		}
	})
	const want = "task 0: core: task heap limit exceeded: 0 + 2048 bytes > cap 1024"
	if err == nil || err.Error() != want {
		t.Fatalf("Execute = %v, want %q", err, want)
	}
	if st := rt.Stall(); st == nil || st.Reason != "task-error" || st.Error != want {
		t.Fatalf("stall = %+v, want reason task-error naming %q", st, want)
	}
}

// TestParseLimits: the one flag parser behind impacc-run, impacc-bench and
// impacc-serve. An empty or "0" vtime is unlimited.
func TestParseLimits(t *testing.T) {
	for _, vt := range []string{"", "0"} {
		l, err := ParseLimits(vt, 0, 0)
		if err != nil || l != (Limits{}) {
			t.Errorf("ParseLimits(%q) = %+v, %v; want unlimited", vt, l, err)
		}
	}
	l, err := ParseLimits("20us", 200, 1<<20)
	if want := (Limits{MaxVirtualTime: 20 * sim.Microsecond, MaxEvents: 200, MaxAllocBytes: 1 << 20}); err != nil || l != want {
		t.Errorf("ParseLimits(20us) = %+v, %v; want %+v", l, err, want)
	}
	// A bad duration or a negative count fails, naming its flag: a negative
	// count must not run unlimited under a second content address.
	for _, c := range []struct {
		vtime         string
		events, alloc int64
		flag          string
	}{
		{"10parsecs", 0, 0, "max-vtime"},
		{"", -1, 0, "max-events"},
		{"", 0, -1, "max-alloc"},
	} {
		if _, err := ParseLimits(c.vtime, c.events, c.alloc); err == nil || !strings.HasPrefix(err.Error(), c.flag+":") {
			t.Errorf("ParseLimits(%q, %d, %d) = %v; want an error naming %s", c.vtime, c.events, c.alloc, err, c.flag)
		}
	}
}

// TestValidateRejectsNegativeLimits: a Config built without ParseLimits
// gets the same check, naming the field.
func TestValidateRejectsNegativeLimits(t *testing.T) {
	for _, c := range []struct {
		limits Limits
		field  string
	}{
		{Limits{MaxEvents: -1}, "MaxEvents"},
		{Limits{MaxAllocBytes: -5}, "MaxAllocBytes"},
	} {
		cfg := Config{System: topo.Beacon(2), Limits: c.limits}
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("validate(%+v) = %v; want an error naming %s", c.limits, err, c.field)
		}
	}
	if err := (&Config{System: topo.Beacon(2), Limits: Limits{MaxEvents: 1, MaxAllocBytes: 1}}).validate(); err != nil {
		t.Errorf("positive limits rejected: %v", err)
	}
}

// TestLimitsDeterministic: hitting a cap is itself deterministic — the same
// config stops at the same virtual instant both times.
func TestLimitsDeterministic(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4}
	cfg.Limits.MaxEvents = 2000
	halt := func() string {
		_, err := Run(cfg, longProg(1000))
		if err == nil {
			t.Fatal("expected limit error")
		}
		return err.Error()
	}
	if a, b := halt(), halt(); a != b {
		t.Fatalf("limit halt not deterministic:\n %s\n %s", a, b)
	}
}
