package sim

import (
	"testing"
)

// TestPastEventClampsToNow schedules an event for a time the clock has
// already passed: it must run at the current instant, after events already
// queued there, and never move the clock backwards.
func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(50, func() {
		e.At(10, func() { // in the past: clamp to t=50
			order = append(order, "past")
			if e.Now() != 50 {
				t.Errorf("past event ran at t=%v, want 50", e.Now())
			}
		})
		e.At(50, func() { order = append(order, "now") })
		order = append(order, "outer")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO within the instant: the clamped event was scheduled first.
	want := []string{"outer", "past", "now"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSpawnAfterHaltUnwinds spawns a process from the event that halts the
// engine: its body must never run, but its goroutine must still be unwound
// so Run leaks nothing.
func TestSpawnAfterHaltUnwinds(t *testing.T) {
	e := NewEngine()
	var bodyRan bool
	e.At(10, func() {
		e.Halt()
		e.Spawn("late", func(p *Proc) { bodyRan = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bodyRan {
		t.Fatal("process spawned after Halt ran its body")
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Run, want 0 (goroutine leaked)", e.Live())
	}
}

// TestHaltRunsDefersOfParkedProcs halts mid-run with processes parked at
// various depths; every defer must run (unwinding, not abandonment) and
// Live must reach zero.
func TestHaltRunsDefersOfParkedProcs(t *testing.T) {
	e := NewEngine()
	var unwound int
	for i := 0; i < 5; i++ {
		e.Spawn("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(1000) // far past the halt
		})
	}
	e.At(10, func() { e.Halt() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound != 5 {
		t.Fatalf("unwound %d processes, want 5", unwound)
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", e.Live())
	}
}

// TestEventPoolReuse drives enough schedule/dispatch cycles through one
// engine to recycle pooled event structs many times over and checks the
// schedule stays exact — a stale pooled field would misfire immediately.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine()
	const rounds = 1000
	var fired int
	var last Time
	var step func()
	step = func() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v -> %v", last, e.Now())
		}
		last = e.Now()
		fired++
		if fired < rounds {
			// Mix same-instant and future events so both the nowQ and
			// the heap cycle through the pool.
			if fired%3 == 0 {
				e.At(e.Now(), step)
			} else {
				e.After(Dur(fired%7+1), step)
			}
		}
	}
	e.At(1, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != rounds {
		t.Fatalf("fired %d events, want %d", fired, rounds)
	}
	if len(e.pool) == 0 {
		t.Fatal("freelist empty after run: events are not being recycled")
	}
}

// TestLazyCancellationSkipsDeadProc checks that a wake event for a process
// that already finished is discarded instead of resuming a dead goroutine.
func TestLazyCancellationSkipsDeadProc(t *testing.T) {
	e := NewEngine()
	var p *Proc
	e.Spawn("short", func(pp *Proc) { p = pp })
	// Queue a spurious wake for after the process has finished.
	e.At(5, func() { e.wake(p, 10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", e.Live())
	}
}

// TestIsHaltUnwind pins the sentinel contract used by recover wrappers in
// higher layers.
func TestIsHaltUnwind(t *testing.T) {
	if !IsHaltUnwind(haltUnwind{}) {
		t.Fatal("sentinel not recognized")
	}
	if IsHaltUnwind("boom") || IsHaltUnwind(nil) {
		t.Fatal("non-sentinel values recognized")
	}
}

// TestProcsCompaction spawns far more short-lived processes than are ever
// live at once; the diagnostics slice must not grow without bound.
func TestProcsCompaction(t *testing.T) {
	e := NewEngine()
	var spawn func()
	n := 0
	maxSeen := 0
	spawn = func() {
		if len(e.procs) > maxSeen {
			maxSeen = len(e.procs)
		}
		if n >= 500 {
			return
		}
		n++
		e.Spawn("w", func(p *Proc) {})
		e.After(1, spawn)
	}
	e.At(0, spawn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Only a couple of processes are live at any instant, so compaction
	// must keep the slice near the 64-entry threshold, not at 500.
	if maxSeen > 130 {
		t.Fatalf("procs slice peaked at %d entries, want compaction near 64", maxSeen)
	}
}
