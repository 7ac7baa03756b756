package sim

import (
	"errors"
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

// drainGoroutines waits for unwound process goroutines to actually exit
// before the caller counts them. Unwinding resumes each goroutine and waits
// for its park handshake, but the final runtime exit races the counter.
func drainGoroutines(t *testing.T, baseline int) {
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

func TestCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	spinProcs(e, 4)
	e.At(Time(50*Microsecond), e.Cancel)
	err := e.Run()
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
	if !e.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	drainGoroutines(t, baseline)
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
	e.At(Time(10*Microsecond), e.Cancel)
	if err := e.Run(); err == nil {
		t.Fatal("expected CancelError")
	}
	if !deferRan {
		t.Fatal("process defer did not run on cancel")
	}
}

// TestCancelFromOtherGoroutine: Cancel is documented as the one engine entry
// point safe from any goroutine. Exercised under -race in CI.
func TestCancelFromOtherGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	spinProcs(e, 8)
	go func() {
		time.Sleep(5 * time.Millisecond)
		e.Cancel()
	}()
	err := e.Run()
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CancelError", err)
	}
	drainGoroutines(t, baseline)
}

// TestCancelBeforeRun: cancelling before Run starts stops it on the first
// loop iteration, before any event dispatches.
func TestCancelBeforeRun(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Cancel()
	var ce *CancelError
	if err := e.Run(); !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CancelError", err)
	}
	if ran {
		t.Fatal("event dispatched despite pre-run cancel")
	}
	if e.Events() != 0 {
		t.Fatalf("Events() = %d, want 0", e.Events())
	}
}

// soloGroup wraps e in the one-shard group that Engine.Run also builds, so a
// test can set the group's limits before running it.
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
	drainGoroutines(t, baseline)
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
