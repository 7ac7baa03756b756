package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardWorkload drives a ring of nShards engines: each shard runs a process
// that alternates local compute (sleep + local events) with cross-shard
// posts to its right neighbor, at latencies >= lookahead. Every dispatched
// payload appends a "(t,label)" record to its OWN shard's log, so each log
// has exactly one writer (that shard's window worker) and the per-shard
// record sequence is the observable schedule.
func shardWorkload(nShards, rounds int, lookahead Dur, workers int) ([]*strings.Builder, error) {
	engines := make([]*Engine, nShards)
	logs := make([]*strings.Builder, nShards)
	for i := range engines {
		engines[i] = NewLPEngine(i)
		logs[i] = &strings.Builder{}
	}
	g := NewShardGroup(engines, lookahead, workers)
	for i := range engines {
		i := i
		e := engines[i]
		dst := engines[(i+1)%nShards]
		dstLog := logs[(i+1)%nShards]
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(Dur(30 + i*7 + k))
				fmt.Fprintf(logs[i], "(%d,local%d.%d)", p.Now(), i, k)
				// Same-instant burst: exercises the nowQ FIFO inside a window.
				for j := 0; j < 3; j++ {
					j := j
					e.At(e.Now(), func() { fmt.Fprintf(logs[i], "(%d,burst%d.%d.%d)", e.Now(), i, k, j) })
				}
				// Distinct per-shard offsets so no two shards target the same
				// (dst, time); the serial reference below then has an
				// unambiguous order to compare against.
				at := e.Now() + Time(lookahead) + Time(1+i*3)
				kk := k
				e.Post(dst, at, Func(func() { fmt.Fprintf(dstLog, "(%d,msg%d.%d)", dst.Now(), i, kk) }))
				p.Sleep(Dur(11 + i))
			}
		})
	}
	return logs, g.Run()
}

// TestShardGroupWorkerInvariance: the same sharded workload produces
// byte-identical per-shard schedules for every worker count — parallelism is
// wall-clock only.
func TestShardGroupWorkerInvariance(t *testing.T) {
	var ref []string
	for _, workers := range []int{1, 2, 8} {
		logs, err := shardWorkload(4, 6, 100, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]string, len(logs))
		for i, l := range logs {
			got[i] = l.String()
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("workers=%d shard %d schedule diverges:\n got %s\nwant %s", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestShardGroupMatchesSerialEngine: the sharded run of the ring workload
// dispatches the same payloads at the same virtual times as one serial
// engine executing the identical logical program (cross-shard posts become
// plain At calls).
func TestShardGroupMatchesSerialEngine(t *testing.T) {
	const nShards, rounds = 3, 5
	const lookahead = Dur(100)
	sharded, err := shardWorkload(nShards, rounds, lookahead, 2)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	logs := make([]*strings.Builder, nShards)
	for i := range logs {
		logs[i] = &strings.Builder{}
	}
	for i := 0; i < nShards; i++ {
		i := i
		dstLog := logs[(i+1)%nShards]
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(Dur(30 + i*7 + k))
				fmt.Fprintf(logs[i], "(%d,local%d.%d)", p.Now(), i, k)
				for j := 0; j < 3; j++ {
					j := j
					e.At(e.Now(), func() { fmt.Fprintf(logs[i], "(%d,burst%d.%d.%d)", e.Now(), i, k, j) })
				}
				at := e.Now() + Time(lookahead) + Time(1+i*3)
				kk := k
				e.At(at, func() { fmt.Fprintf(dstLog, "(%d,msg%d.%d)", e.Now(), i, kk) })
				p.Sleep(Dur(11 + i))
			}
		})
	}
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	for i := range logs {
		if sharded[i].String() != logs[i].String() {
			t.Errorf("shard %d diverges from serial engine:\n got %s\nwant %s", i, sharded[i], logs[i])
		}
	}
}

// TestShardGroupDeadlockUnion: processes stuck on different shards surface
// as one DeadlockError carrying the sorted union of every shard's blocked
// diagnostics, like a serial engine reporting all of its stuck processes.
func TestShardGroupDeadlockUnion(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 50, 2)
	for i, e := range engines {
		ev := e.NewEvent("never")
		e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			p.Sleep(Dur(10 * (i + 1)))
			ev.Wait(p)
		})
	}
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both shards' processes", de.Blocked)
	}
	if !(de.Blocked[0] < de.Blocked[1]) {
		t.Fatalf("blocked union not sorted: %v", de.Blocked)
	}
}

// tickGroup builds a group of nShards engines, each running an unbounded
// self-rearming clock that ticks every period, with the given event cap.
func tickGroup(nShards, workers int, period Dur, maxEvents uint64) *ShardGroup {
	engines := make([]*Engine, nShards)
	for i := range engines {
		engines[i] = NewLPEngine(i)
	}
	g := NewShardGroup(engines, 100, workers)
	g.MaxEvents = maxEvents
	for _, e := range engines {
		e := e
		var tick func()
		tick = func() { e.After(period, tick) }
		e.After(period, tick)
	}
	return g
}

// checkEventBudget runs the tick workload of nShards at each worker count:
// every run must trip the cap at the canonical cap-th event at wantAt with
// the same error text and dispatch count as the first, and a one-shard
// group must stop on exactly the cap-th event, as a serial loop would.
func checkEventBudget(t *testing.T, nShards int, period Dur, maxEvents uint64, wantAt Time, workers ...int) {
	t.Helper()
	var wantErr string
	var wantEvents uint64
	for i, w := range workers {
		g := tickGroup(nShards, w, period, maxEvents)
		err := g.Run()
		le, ok := err.(*LimitError)
		if !ok {
			t.Fatalf("workers=%d: Run returned %v, want LimitError", w, err)
		}
		if le.Resource != "events" || le.Limit != int64(maxEvents) {
			t.Fatalf("workers=%d: limit error %+v, want events/%d", w, le, maxEvents)
		}
		if le.At != wantAt {
			t.Fatalf("workers=%d: limit error at t=%v, want the canonical %dth event at t=%v", w, Dur(le.At), maxEvents, Dur(wantAt))
		}
		if got := g.Events(); got < maxEvents || nShards == 1 && got != maxEvents {
			t.Fatalf("workers=%d: dispatched %d events against the cap %d", w, got, maxEvents)
		}
		if i == 0 {
			wantErr, wantEvents = err.Error(), g.Events()
		} else if err.Error() != wantErr || g.Events() != wantEvents {
			t.Fatalf("workers=%d: (%q, %d events) differs from workers=%d (%q, %d events)",
				w, err, g.Events(), workers[0], wantErr, wantEvents)
		}
	}
}

// TestShardGroupMaxEventsBudget: the group-wide event cap stops the run with
// a LimitError attributed to the canonical (at, depth, lp, seq)-least event
// that exhausted the budget, so the error — and the whole trajectory,
// including the final window's bounded overshoot — is byte-identical at
// every worker count. Shards tick every 7ns: of four shards the canonical
// 40th dispatch is the 10th tick at t=70; one shard's 100th tick (a cap
// below exactThreshold, so stamped from the start) is at t=700.
func TestShardGroupMaxEventsBudget(t *testing.T) {
	checkEventBudget(t, 4, 7, 40, 70, 1, 4)
	checkEventBudget(t, 1, 7, 100, 700, 1, 4)
}

// TestShardGroupMaxEventsFarFromCap: a budget far above the exact-attribution
// threshold (9000 > 4096) still stops the run deterministically — the coarse
// per-window caps shrink the remainder until exact stamping engages, and the
// final error matches across worker counts. Shards tick in lockstep every
// 5ns: of three shards the canonical 9000th dispatch is the 3000th tick at
// t=15000; one shard's 9000th tick is at t=45000.
func TestShardGroupMaxEventsFarFromCap(t *testing.T) {
	checkEventBudget(t, 3, 5, 9000, 15000, 1, 3)
	checkEventBudget(t, 1, 5, 9000, 45000, 1, 3)
}

// TestShardGroupCancel: a cancel raised mid-run (here from inside an event,
// the deterministic way to trigger one) stops every shard and surfaces as a
// CancelError, with all processes unwound.
func TestShardGroupCancel(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 100, 2)
	defersRan := 0
	for i, e := range engines {
		i := i
		e := e
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			defer func() { defersRan++ }()
			for {
				p.Sleep(Dur(20))
			}
		})
		if i == 0 {
			e.At(Time(200), func() { g.Cancel() })
		}
	}
	err := g.Run()
	if _, ok := err.(*CancelError); !ok {
		t.Fatalf("Run returned %v, want CancelError", err)
	}
	if !g.Cancelled() {
		t.Fatal("Cancelled() = false after cancel")
	}
	if defersRan != 2 {
		t.Fatalf("defers ran on %d processes, want 2 (unwind after cancel)", defersRan)
	}
}

// TestShardGroupPanicPropagates: a panic on any shard halts the group and
// Run returns the PanicError of the lowest shard index.
func TestShardGroupPanicPropagates(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 100, 2)
	engines[1].Spawn("bomb", func(p *Proc) {
		p.Sleep(Dur(30))
		panic("boom")
	})
	engines[0].Spawn("calm", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Dur(5))
		}
	})
	err := g.Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("Run returned %v, want PanicError", err)
	}
	if pe.Proc != "bomb" || pe.Value != "boom" {
		t.Fatalf("panic error %+v, want proc bomb / value boom", pe)
	}
}

// TestShardGroupCallbackPanic: a panic in a callback, not a process, ends a
// sharded run like a process panic does, at every worker count: Run returns
// the callback's *PanicError, named "fn" as the flight ring names callbacks,
// unwinds the processes of every shard and files a panic dump. The other
// shards are busy in the panic's window, so at two or more workers the
// callback may run on a worker goroutine or on the coordinator.
func TestShardGroupCallbackPanic(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		baseline, coros := runtime.NumGoroutine(), parkedCoroutines()
		engines := []*Engine{NewLPEngine(0), NewLPEngine(1), NewLPEngine(2)}
		g := NewShardGroup(engines, 100, workers)
		g.ArmFlight(4)
		unwound := make([]int, len(engines))
		for i, e := range engines {
			never := e.NewEvent("never")
			e.Spawn(fmt.Sprint("parked", i), func(p *Proc) {
				defer func() { unwound[i]++ }()
				never.Wait(p)
			})
			e.Spawn(fmt.Sprint("ticker", i), func(p *Proc) {
				defer func() { unwound[i]++ }()
				for {
					p.Sleep(7)
				}
			})
		}
		engines[1].At(40, func() { panic(fmt.Sprint("callback boom at t=", engines[1].Now())) })
		err := g.Run()
		pe, ok := err.(*PanicError)
		if !ok || pe.Proc != "fn" || pe.key.at != 40 {
			t.Fatalf("workers %d: Run returned %v, want the callback's *PanicError at t=40", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers %d: Run returned %q, want %q as at one worker", workers, err, want)
		}
		if n := parkedCoroutines(); n != coros {
			t.Fatalf("workers %d: %d process coroutines parked after Run, baseline %d", workers, n, coros)
		}
		// A pool worker calls wg.Done just before it exits, so after a
		// parallel window the count may take a moment to settle.
		for i := 0; workers > 1 && i < 1000 && runtime.NumGoroutine() > baseline; i++ {
			time.Sleep(time.Millisecond)
		}
		checkGoroutines(t, baseline)
		if n := g.LiveProcs(); n != 0 || fmt.Sprint(unwound) != "[2 2 2]" {
			t.Fatalf("workers %d: %d processes live after Run, defers run per shard %v, want 0 and [2 2 2]", workers, n, unwound)
		}
		st := g.Stall()
		if st == nil || st.Reason != "panic" || st.Error != want || len(st.ParkedRanks()) != 6 {
			t.Fatalf("workers %d: stall dump %+v, want a panic dump of %q with 6 parked processes", workers, st, want)
		}
		if r := st.Shards[1].Recent; len(r) == 0 || r[len(r)-1].Kind != "fn" || r[len(r)-1].AtNs != 40 {
			t.Fatalf("workers %d: shard 1's flight ring %+v does not end in the callback at t=40", workers, r)
		}
	}
}

// TestNewShardGroupValidation: the constructor rejects multi-shard groups
// without a positive lookahead and engines whose lp does not match their
// index — both are programming errors that would silently break determinism.
func TestNewShardGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero lookahead multi-shard", func() {
		NewShardGroup([]*Engine{NewLPEngine(0), NewLPEngine(1)}, 0, 1)
	})
	mustPanic("wrong lp", func() {
		NewShardGroup([]*Engine{NewLPEngine(0), NewLPEngine(2)}, 10, 1)
	})
	// A single standalone engine with no lookahead is the degenerate serial
	// group and must be accepted.
	NewShardGroup([]*Engine{NewEngine()}, 0, 1)
}

// TestPostBelowLookaheadHalts: a cross-shard post below the lookahead — a
// lookahead bound violation — halts its shard in the posting dispatch, from
// a callback as from a process, and the run ends with that dispatch's
// *PanicError at every worker count instead of silently corrupting the
// merge order. The dropped event never runs.
func TestPostBelowLookaheadHalts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, inProc := range []bool{false, true} {
			engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
			g := NewShardGroup(engines, 50, workers)
			ran := false
			post := func() { engines[0].Post(engines[1], Time(59), Func(func() { ran = true })) }
			if inProc {
				engines[0].SpawnAt(Time(10), "poster", func(p *Proc) { post(); p.Sleep(5) })
			} else {
				engines[0].At(Time(10), post)
			}
			engines[0].At(Time(30), func() {})
			engines[1].At(Time(20), func() {})
			err := g.Run()
			pe, ok := err.(*PanicError)
			if !ok || pe.Proc != postProc || pe.key.at != 10 {
				t.Fatalf("workers %d, in process %v: Run returned %v, want the post's *PanicError at t=10", workers, inProc, err)
			}
			if want := lookaheadViolation(0, 1, 59, 10, 50); pe.Value != want {
				t.Fatalf("panic value %q, want %q", pe.Value, want)
			}
			if ran || engines[0].Now() != 10 {
				t.Fatalf("shard 0 ran on to t=%d (dropped event ran: %v)", engines[0].Now(), ran)
			}
		}
	}
}

// TestPostAtLookaheadAllowed: the check accepts a post exactly one
// lookahead out, the nearest conservative lookahead allows.
func TestPostAtLookaheadAllowed(t *testing.T) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1)}
	g := NewShardGroup(engines, 50, 2)
	ran := Time(-1)
	engines[0].At(Time(10), func() {
		engines[0].Post(engines[1], Time(60), Func(func() { ran = engines[1].Now() }))
	})
	if err := g.Run(); err != nil || ran != 60 {
		t.Fatalf("Run = %v, posted event ran at %d, want nil and 60", err, ran)
	}
	logs, err := shardWorkload(3, 4, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		if l.Len() == 0 {
			t.Fatalf("shard %d logged nothing", i)
		}
	}
}

// TestShardGroupBlockSplit: workers claim contiguous blocks of a window's
// active shards (see runWindow); groups whose shard counts straddle the
// block-size steps (1 shard per block up to blocksPerWorker*workers active
// shards, 2 just past it) and a group of 300 log the same dispatches, the
// same MaxNow and the same event count at every worker count as at one.
func TestShardGroupBlockSplit(t *testing.T) {
	counts := []int{1, 2, 300}
	for _, w := range []int{2, 3, 8} {
		b := blocksPerWorker * w
		counts = append(counts, b-1, b, b+1, 2*b+1)
	}
	for _, n := range counts {
		var ref string
		for _, workers := range []int{1, 2, 3, 8} {
			got := blockSplitRun(n, workers)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("%d shards, %d workers: run differs from one worker's\n got %s\nwant %s", n, workers, got, ref)
			}
		}
	}
}

// blockSplitRun runs n shards whose processes each dispatch a few events
// per window and post to another shard every other round, and renders
// every shard's dispatch log, MaxNow and the event count.
func blockSplitRun(n, workers int) string {
	const lookahead = 50
	engines := make([]*Engine, n)
	logs := make([]strings.Builder, n)
	for i := range engines {
		engines[i] = NewLPEngine(i)
	}
	g := NewShardGroup(engines, lookahead, workers)
	note := func(i int, what string) {
		e := engines[i]
		fmt.Fprintf(&logs[i], "%s@%d/%d;", what, e.Now(), e.seq)
	}
	for i, e := range engines {
		e.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			for k := range 12 {
				p.Sleep(Dur(10 + i%5))
				note(i, "tick")
				if k%2 == 0 && n > 1 {
					dst := (i*7 + k + 1) % n
					if dst == i {
						dst = (dst + 1) % n
					}
					e.Post(engines[dst], e.Now()+lookahead+Time(i%3), Func(func() { note(dst, fmt.Sprint("msg", i)) }))
				}
			}
		})
	}
	err := g.Run()
	var out strings.Builder
	fmt.Fprintf(&out, "err %v maxnow %d events %d\n", err, g.MaxNow(), g.Events())
	for i := range logs {
		fmt.Fprintf(&out, "%d: %s\n", i, logs[i].String())
	}
	return out.String()
}

// foreignTarget is what TestShardGroupForeignSchedule's reaches touch: the
// group's engines, and shard 2's primitives, with a process parked on its
// event, idle slot and semaphore.
type foreignTarget struct {
	engines []*Engine
	ev      *Event
	idle    Idle
	sem     *Semaphore
	res     *FIFOResource
	// unwound is set by a parked process's defer once it has scheduled on
	// its own engine while Run unwinds it.
	unwound bool
}

// foreignGroup builds a 3-shard group at workers: shard 2 parks its three
// waiters at t=0 and has nothing to do after, shard 1 ticks in every
// window up to t=700, and shard 0 is left for the test to fill.
func foreignGroup(workers int) (*ShardGroup, *foreignTarget) {
	engines := []*Engine{NewLPEngine(0), NewLPEngine(1), NewLPEngine(2)}
	g := NewShardGroup(engines, 100, workers)
	g.ArmFlight(4)
	e2 := engines[2]
	tg := &foreignTarget{engines: engines, ev: e2.NewEvent("fire"), idle: NewIdle("wake"),
		sem: e2.NewSemaphore(0, "release"), res: e2.NewFIFOResource("link")}
	e2.Spawn("fire-waiter", func(p *Proc) {
		defer func() {
			e2.At(p.Now()+1, func() {})
			tg.unwound = true
		}()
		tg.ev.Wait(p)
	})
	e2.Spawn("wake-waiter", func(p *Proc) { tg.idle.Wait(p) })
	e2.Spawn("release-waiter", func(p *Proc) { tg.sem.Acquire(p) })
	engines[1].Spawn("ticker", func(p *Proc) {
		for range 100 {
			p.Sleep(7)
		}
	})
	return g, tg
}

// TestShardGroupForeignSchedule: while a group runs, an engine changes only
// inside its own dispatch. A callback or process on shard 0 that reaches
// idle shard 2 directly (scheduling on its engine, waking a process parked
// there, or occupying its resource) panics in its own dispatch: Run returns
// the same *PanicError at every worker count, unwinds every process and
// files a panic dump. The same reach from a coordinator hook panics out of
// Run. Scheduling before Run, and a defer that schedules on its own engine
// while Run unwinds, are allowed.
func TestShardGroupForeignSchedule(t *testing.T) {
	const sealed = "sim: lp 2 changed outside its own dispatch; other shards reach it only through Engine.Post"
	reaches := []struct {
		name string
		fn   func(tg *foreignTarget)
	}{
		{"At", func(tg *foreignTarget) { tg.engines[2].At(300, func() {}) }},
		{"After", func(tg *foreignTarget) { tg.engines[2].After(50, func() {}) }},
		{"CallAt", func(tg *foreignTarget) { tg.engines[2].CallAt(300, Func(func() {})) }},
		{"FireAt", func(tg *foreignTarget) { tg.engines[2].FireAt(300, tg.engines[2].NewEvent("late")) }},
		{"Spawn", func(tg *foreignTarget) { tg.engines[2].Spawn("stray", func(*Proc) {}) }},
		{"SpawnAt", func(tg *foreignTarget) { tg.engines[2].SpawnAt(300, "stray", func(*Proc) {}) }},
		{"SpawnStepAt", func(tg *foreignTarget) { tg.engines[2].SpawnStepAt(300, "stray", func(*Proc) {}) }},
		{"Post", func(tg *foreignTarget) { tg.engines[2].Post(tg.engines[1], 400, Func(func() {})) }},
		{"Event.Fire", func(tg *foreignTarget) { tg.ev.Fire() }},
		{"Idle.Wake", func(tg *foreignTarget) { tg.idle.Wake() }},
		{"Semaphore.Release", func(tg *foreignTarget) { tg.sem.Release() }},
		{"FIFOResource.UseAsync", func(tg *foreignTarget) { tg.res.UseAsync(10) }},
	}
	hooks := []struct {
		name string
		set  func(g *ShardGroup, reach func())
	}{
		{"OnBeat", func(g *ShardGroup, reach func()) { g.BeatEvery, g.OnBeat = 100, func(Time) { reach() } }},
		{"OnWindow", func(g *ShardGroup, reach func()) { g.OnWindow = func(Time) { reach() } }},
		{"Check", func(g *ShardGroup, reach func()) { g.Check = func(Time) error { reach(); return nil } }},
	}
	for _, r := range reaches {
		t.Run(r.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				for _, proc := range []string{"fn", "reacher"} {
					coros := parkedCoroutines()
					g, tg := foreignGroup(workers)
					if proc == "fn" {
						tg.engines[0].At(150, func() { r.fn(tg) })
					} else {
						tg.engines[0].SpawnAt(150, proc, func(*Proc) { r.fn(tg) })
					}
					err := g.Run()
					want := fmt.Sprintf("sim: process %s panicked: %s", proc, sealed)
					if _, ok := err.(*PanicError); !ok || err.Error() != want {
						t.Fatalf("from %s, workers %d: Run returned %v, want %q", proc, workers, err, want)
					}
					if n := parkedCoroutines(); n != coros || g.LiveProcs() != 0 {
						t.Fatalf("from %s, workers %d: %d coroutines parked (baseline %d), %d processes live after Run",
							proc, workers, n, coros, g.LiveProcs())
					}
					if st := g.Stall(); st == nil || st.Reason != "panic" || st.Error != want {
						t.Fatalf("from %s, workers %d: stall dump %+v, want a panic dump of %q", proc, workers, st, want)
					}
					if !tg.unwound {
						t.Fatalf("from %s, workers %d: a defer did not schedule on its own engine while Run unwound", proc, workers)
					}
					tg.engines[2].At(0, func() {}) // unsealed again once Run returns
				}
			}
			for _, h := range hooks {
				for _, workers := range []int{1, 2, 8} {
					coros := parkedCoroutines()
					g, tg := foreignGroup(workers)
					h.set(g, func() { r.fn(tg) })
					got := func() (v any) {
						defer func() { v = recover() }()
						return g.Run()
					}()
					if err, ok := got.(error); !ok || err.Error() != sealed {
						t.Fatalf("from %s, workers %d: Run ended with %v, want a panic of %q", h.name, workers, got, sealed)
					}
					for _, e := range tg.engines {
						e.unwindProcs()
						e.At(0, func() {}) // unsealed once unwound
					}
					if n := parkedCoroutines(); n != coros {
						t.Fatalf("from %s, workers %d: %d coroutines parked, baseline %d", h.name, workers, n, coros)
					}
				}
			}
		})
	}
}
