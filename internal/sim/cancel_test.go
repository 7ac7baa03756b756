package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// spinProcs spawns n processes that sleep forever in 1us steps, generating a
// steady event stream for the caps to interrupt.
func spinProcs(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
	}
}

// checkGoroutines fails the test if more goroutines run than at baseline.
// Call it immediately after Run: a coroutine process exits synchronously
// inside the next call that finishes it, so nothing is left to settle.
// Only goroutines older than the baseline (the previous test's, say) may
// still be exiting, which is why fewer is not a failure.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}

// parkedCoroutines counts goroutines parked as iter.Pull coroutines, which
// is how unfinished sim processes wait.
func parkedCoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte(" [coroutine"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

func TestCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	g := soloGroup(e)
	spinProcs(e, 4)
	e.At(Time(50*Microsecond), g.Cancel)
	err := g.Run()
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CancelError", err)
	}
	if ce.At != Time(50*Microsecond) {
		t.Fatalf("cancel observed at t=%v, want 50us", Dur(ce.At))
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after cancel", e.Live())
	}
	if !g.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	checkGoroutines(t, baseline)
}

// TestCancelRunsDefers: a cancelled run must still execute process defers —
// that is what guarantees external resources (worktrees, telemetry guards)
// are released when impacc-serve kills a job.
func TestCancelRunsDefers(t *testing.T) {
	e := NewEngine()
	deferRan := false
	e.Spawn("victim", func(p *Proc) {
		defer func() { deferRan = true }()
		for {
			p.Sleep(Microsecond)
		}
	})
	g := soloGroup(e)
	e.At(Time(10*Microsecond), g.Cancel)
	if err := g.Run(); err == nil {
		t.Fatal("expected CancelError")
	}
	if !deferRan {
		t.Fatal("process defer did not run on cancel")
	}
}

// TestCancelFromOtherGoroutine: Cancel is documented as the one group entry
// point safe from any goroutine. Exercised under -race in CI.
func TestCancelFromOtherGoroutine(t *testing.T) {
	e := NewEngine()
	g := soloGroup(e)
	// The canceller outlives the goroutine check, so it is part of the
	// baseline instead of racing it. The baseline is taken before the
	// processes spawn: each spawn starts its coroutine's goroutine, and
	// every one of those must be gone when Run returns.
	release := make(chan struct{})
	defer close(release)
	go func() {
		time.Sleep(5 * time.Millisecond)
		g.Cancel()
		<-release
	}()
	baseline := runtime.NumGoroutine()
	spinProcs(e, 8)
	err := g.Run()
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CancelError", err)
	}
	checkGoroutines(t, baseline)
}

// TestCancelBeforeRun: cancelling before Run starts stops it on the first
// loop iteration, before any event dispatches.
func TestCancelBeforeRun(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	g := soloGroup(e)
	g.Cancel()
	var ce *CancelError
	if err := g.Run(); !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CancelError", err)
	}
	if ran {
		t.Fatal("event dispatched despite pre-run cancel")
	}
	if g.Events() != 0 {
		t.Fatalf("Events() = %d, want 0", g.Events())
	}
}

// soloGroup wraps e in a one-shard group, which runs it alone; a test can
// set the group's limits, or cancel it, before running it.
func soloGroup(e *Engine) *ShardGroup { return NewShardGroup([]*Engine{e}, 0, 1) }

func TestMaxEventsLimit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	g := soloGroup(e)
	g.MaxEvents = 100
	spinProcs(e, 2)
	err := g.Run()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("Run() = %v, want *LimitError", err)
	}
	if le.Resource != "events" || le.Limit != 100 {
		t.Fatalf("LimitError = %+v, want events/100", le)
	}
	if g.Events() != 100 {
		t.Fatalf("Events() = %d, want exactly the cap", g.Events())
	}
	checkGoroutines(t, baseline)
}

func TestDeadlineLimit(t *testing.T) {
	e := NewEngine()
	g := soloGroup(e)
	g.Deadline = Time(10 * Microsecond)
	spinProcs(e, 1)
	err := g.Run()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("Run() = %v, want *LimitError", err)
	}
	if le.Resource != "vtime" || le.Limit != int64(10*Microsecond) {
		t.Fatalf("LimitError = %+v, want vtime/10000", le)
	}
	// An event exactly at the deadline still runs: only crossing it stops
	// the clock.
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("clock at %v, want exactly the deadline", Dur(e.Now()))
	}
}

// TestDeadlineExactEventRuns: an event scheduled exactly at the deadline
// dispatches; the error only fires for events strictly past it.
func TestDeadlineExactEventRuns(t *testing.T) {
	e := NewEngine()
	g := soloGroup(e)
	g.Deadline = Time(Millisecond)
	atDeadline := false
	e.At(Time(Millisecond), func() { atDeadline = true })
	if err := g.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil (queue drains at the deadline)", err)
	}
	if !atDeadline {
		t.Fatal("event at the deadline instant did not run")
	}
}

// TestLimitErrorDeterministic: the same run with the same cap stops at the
// same virtual instant and event count, every time.
func TestLimitErrorDeterministic(t *testing.T) {
	run := func() (Time, uint64) {
		e := NewEngine()
		g := soloGroup(e)
		g.MaxEvents = 500
		spinProcs(e, 3)
		var le *LimitError
		if err := g.Run(); !errors.As(err, &le) {
			t.Fatalf("Run() = %v, want *LimitError", err)
		}
		return e.Now(), g.Events()
	}
	at1, n1 := run()
	at2, n2 := run()
	if at1 != at2 || n1 != n2 {
		t.Fatalf("limit halt not deterministic: (%v,%d) vs (%v,%d)", at1, n1, at2, n2)
	}
}

// TestRunEndsLeaveNoGoroutines: however a run ends, every process
// coroutine has exited by the time Run returns.
func TestRunEndsLeaveNoGoroutines(t *testing.T) {
	cases := []struct {
		name     string
		parallel bool
		run      func() error
	}{
		{"halt", false, func() error {
			e := NewEngine()
			g := soloGroup(e)
			spinProcs(e, 4)
			e.At(Time(20*Microsecond), g.Cancel)
			var ce *CancelError
			if err := g.Run(); !errors.As(err, &ce) {
				return fmt.Errorf("Run() = %v, want *CancelError", err)
			}
			return nil
		}},
		{"deadlock", false, func() error {
			e := NewEngine()
			for i := 0; i < 4; i++ {
				ev := e.NewEvent("never")
				e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
			}
			var de *DeadlockError
			if err := soloGroup(e).Run(); !errors.As(err, &de) {
				return fmt.Errorf("Run() = %v, want *DeadlockError", err)
			}
			return nil
		}},
		{"panic", false, func() error {
			e := NewEngine()
			spinProcs(e, 4)
			e.Spawn("bomb", func(p *Proc) {
				p.Sleep(10 * Microsecond)
				panic("boom")
			})
			var pe *PanicError
			if err := soloGroup(e).Run(); !errors.As(err, &pe) {
				return fmt.Errorf("Run() = %v, want *PanicError", err)
			}
			return nil
		}},
		{"two-worker group", true, func() error {
			// Processes on both shards, still parked when the deadline
			// stops the run, so the 2-worker windows and the unwinding
			// both run.
			engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
			for _, e := range engines {
				spinProcs(e, 3)
			}
			g := NewShardGroup(engines, 5*Microsecond, 2)
			g.Deadline = Time(100 * Microsecond)
			var le *LimitError
			if err := g.Run(); !errors.As(err, &le) {
				return fmt.Errorf("Run() = %v, want *LimitError", err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline, coros := runtime.NumGoroutine(), parkedCoroutines()
			if err := c.run(); err != nil {
				t.Fatalf("unexpected run end: %v", err)
			}
			if n := parkedCoroutines(); n != coros {
				t.Fatalf("%d process coroutines parked after Run, baseline %d", n, coros)
			}
			// A pool worker calls wg.Done just before it exits, so right
			// after a parallel window it may still be exiting: there only
			// the coroutine count is exact.
			if !c.parallel {
				checkGoroutines(t, baseline)
			}
		})
	}
}

// TestProcGoexitEndsRunner pins the runtime.Goexit contract: a process that
// calls runtime.Goexit (as t.FailNow does) runs its defers and then ends the
// goroutine that called Run, because iter.Pull propagates Goexit to the
// caller of next. Run never returns.
func TestProcGoexitEndsRunner(t *testing.T) {
	var deferRan, returned bool
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e := NewEngine()
		e.Spawn("quitter", func(p *Proc) {
			defer func() { deferRan = true }()
			p.Sleep(Microsecond)
			runtime.Goexit()
		})
		_ = soloGroup(e).Run()
		returned = true
	}()
	<-exited
	if !deferRan {
		t.Fatal("process defer did not run before Goexit ended the runner")
	}
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
}
