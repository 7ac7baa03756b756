package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		woke = p.Now()
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(10*Microsecond) {
		t.Fatalf("woke at %v, want 10us", woke)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	e.Spawn("z", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("zero/negative sleeps moved clock to %v", p.Now())
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	// Two processes scheduled at the same instant must run in spawn order.
	run := func() []string {
		e := NewEngine()
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				p.Sleep(Microsecond)
				order = append(order, p.Name)
			})
		}
		if err := soloGroup(e).Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order %v != %v", trial, got, first)
			}
		}
	}
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestAfterCallbackRuns(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.After(3*Millisecond, func() { at = e.Now() })
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(3*Millisecond) {
		t.Fatalf("callback at %v, want 3ms", at)
	}
}

func TestAtClampsToNow(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.Spawn("p", func(p *Proc) {
		p.Sleep(Millisecond)
		// Schedule in the past: must run at now, not never.
		e.At(0, func() { ran = true })
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var start Time
	e.SpawnAt(Time(7*Microsecond), "late", func(p *Proc) { start = p.Now() })
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if start != Time(7*Microsecond) {
		t.Fatalf("started at %v, want 7us", start)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := soloGroup(e).Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("go")
	var woke []string
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, p.Name)
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(Microsecond)
		ev.Fire()
		ev.Fire() // double fire is a no-op
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w0" || woke[2] != "w2" {
		t.Fatalf("wake order = %v", woke)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("pre")
	ev.Fire()
	var t0 Time = -1
	e.Spawn("late", func(p *Proc) {
		ev.Wait(p) // must not block
		t0 = p.Now()
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if t0 != 0 {
		t.Fatalf("late waiter resumed at %v, want 0", t0)
	}
}

func TestCondWakeOneFIFO(t *testing.T) {
	e := NewEngine()
	c := e.NewCond("c")
	var woke []string
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woke = append(woke, p.Name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		if !c.WakeOne() {
			t.Error("WakeOne found no waiter")
		}
		p.Sleep(Microsecond)
		for c.WakeOne() {
		}
		if c.WakeOne() {
			t.Error("WakeOne woke someone after the list drained")
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", woke, want)
		}
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(2, "s")
	var inUse, peak int
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			s.Acquire(p)
			inUse++
			if inUse > peak {
				peak = inUse
			}
			p.Sleep(10 * Microsecond)
			inUse--
			s.Release()
		})
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if s.avail != 2 {
		t.Fatalf("final permits = %d, want 2", s.avail)
	}
}

func TestSemaphoreFIFOHandoff(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(1, "s")
	var order []string
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			s.Acquire(p)
			order = append(order, p.Name)
			p.Sleep(Microsecond)
			s.Release()
		})
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"u0", "u1", "u2", "u3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := e.NewFIFOResource("link")
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			r.Use(p, 10*Microsecond, 0)
			ends = append(ends, p.Now())
		})
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusyTime() != 30*Microsecond {
		t.Fatalf("busy = %v, want 30us", r.BusyTime())
	}
	if r.use.Uses != 3 {
		t.Fatalf("uses = %d, want 3", r.use.Uses)
	}
}

func TestFIFOResourceTailDoesNotOccupy(t *testing.T) {
	e := NewEngine()
	r := e.NewFIFOResource("link")
	var end0, end1 Time
	e.Spawn("a", func(p *Proc) {
		r.Use(p, 10*Microsecond, 5*Microsecond)
		end0 = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		r.Use(p, 10*Microsecond, 5*Microsecond)
		end1 = p.Now()
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	// a: occupies 0-10, done at 15. b: occupies 10-20 (tail overlaps), done 25.
	if end0 != Time(15*Microsecond) || end1 != Time(25*Microsecond) {
		t.Fatalf("ends = %v, %v; want 15us, 25us", end0, end1)
	}
}

func TestFIFOResourceUseAsync(t *testing.T) {
	e := NewEngine()
	r := e.NewFIFOResource("copyeng")
	s1, e1 := r.UseAsync(4 * Microsecond)
	s2, e2 := r.UseAsync(4 * Microsecond)
	if s1 != 0 || e1 != Time(4*Microsecond) {
		t.Fatalf("first async = [%v,%v]", s1, e1)
	}
	if s2 != Time(4*Microsecond) || e2 != Time(8*Microsecond) {
		t.Fatalf("second async = [%v,%v]", s2, e2)
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0) // yields behind the events already queued at now
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDurString(t *testing.T) {
	cases := []struct {
		d    Dur
		want string
	}{
		{5, "5ns"},
		{1500, "1.50us"},
		{2500000, "2.500ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurFromSeconds(t *testing.T) {
	if DurFromSeconds(-1) != 0 {
		t.Fatal("negative seconds should clamp to 0")
	}
	if d := DurFromSeconds(1e-9); d != 1 {
		t.Fatalf("1ns worth = %d", int64(d))
	}
	if d := DurFromSeconds(2.5); d != Dur(2500*Millisecond) {
		t.Fatalf("2.5s = %v", d)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced same first value")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(9)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
}

// Property: a FIFO resource's completion times under arbitrary arrival
// patterns equal the analytic back-to-back schedule.
func TestFIFOResourceScheduleProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 50 {
			return true
		}
		e := NewEngine()
		r := e.NewFIFOResource("x")
		ends := make([]Time, len(durs))
		for i, d := range durs {
			i, d := i, Dur(d)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Use(p, d, 0)
				ends[i] = p.Now()
			})
		}
		if err := soloGroup(e).Run(); err != nil {
			return false
		}
		var cum Time
		for i, d := range durs {
			cum += Time(d)
			if ends[i] != cum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOnFireCallbacks(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("cb")
	var order []string
	ev.OnFire(Func(func() { order = append(order, "early") }))
	e.Spawn("w", func(p *Proc) {
		ev.Wait(p)
		order = append(order, "waiter")
	})
	e.Spawn("f", func(p *Proc) {
		p.Sleep(Microsecond)
		ev.Fire()
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	// Callbacks run before waiters resume.
	if len(order) != 2 || order[0] != "early" || order[1] != "waiter" {
		t.Fatalf("order = %v", order)
	}
	// Registering after fire runs immediately.
	ran := false
	ev.OnFire(Func(func() { ran = true }))
	if !ran {
		t.Fatal("post-fire OnFire did not run")
	}
}

func TestCoUseAsync(t *testing.T) {
	e := NewEngine()
	a := e.NewFIFOResource("a")
	b := e.NewFIFOResource("b")
	// Occupy a alone first; the co-use must start when both are free.
	a.UseAsync(10 * Microsecond)
	start, end := CoUseAsync(5*Microsecond, a, b)
	if start != Time(10*Microsecond) || end != Time(15*Microsecond) {
		t.Fatalf("co-use = [%v, %v]", start, end)
	}
	if a.freeAt != end || b.freeAt != end {
		t.Fatal("both resources must be held to the same end")
	}
	if _, e2 := CoUseAsync(-1, b); e2 != end {
		t.Fatal("negative occupy must clamp to zero")
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	e.Spawn("bystander", func(p *Proc) {
		p.Sleep(time10ms())
	})
	err := soloGroup(e).Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("err = %v (%T), want PanicError", err, err)
	}
	if pe.Proc != "bomber" || pe.Unwrap() != nil {
		t.Fatalf("panic error = %+v", pe)
	}
	if pe.Error() == "" {
		t.Fatal("empty error text")
	}
}

func time10ms() Dur { return 10 * Millisecond }

func TestProcPanicWithErrorUnwraps(t *testing.T) {
	e := NewEngine()
	sentinel := &DeadlockError{}
	e.Spawn("b", func(p *Proc) { panic(sentinel) })
	err := soloGroup(e).Run()
	pe, ok := err.(*PanicError)
	if !ok || pe.Unwrap() != error(sentinel) {
		t.Fatalf("unwrap = %v", err)
	}
}

// TestHaltStopsRun: a cancel raised by the running event halts the engine
// once that event completes.
func TestHaltStopsRun(t *testing.T) {
	e := NewEngine()
	g := soloGroup(e)
	var count int
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			count++
			if count == 5 {
				g.Cancel()
			}
		}
	})
	if _, ok := g.Run().(*CancelError); !ok {
		t.Fatal("want CancelError")
	}
	if !e.halted || count != 5 {
		t.Fatalf("halted=%v count=%d", e.halted, count)
	}
}

func TestCondWaiting(t *testing.T) {
	e := NewEngine()
	c := e.NewCond("c")
	e.Spawn("w", func(p *Proc) { c.Wait(p) })
	e.Spawn("obs", func(p *Proc) {
		p.Sleep(Microsecond)
		if c.waiters.Len() != 1 {
			t.Errorf("waiting = %d", c.waiters.Len())
		}
		c.WakeOne()
	})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeAndDurSeconds(t *testing.T) {
	if Second.Seconds() != 1.0 || Dur(Time(Millisecond)).Seconds() != 0.001 {
		t.Fatal("Seconds conversions wrong")
	}
}
