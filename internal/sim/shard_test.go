package sim

import (
	"fmt"
	"strings"
	"testing"
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

// TestInjectCausalityCheck: an event injected at or before a shard's local
// clock — a lookahead bound violation — panics instead of silently
// corrupting the merge order.
func TestInjectCausalityCheck(t *testing.T) {
	e := NewLPEngine(0)
	e.At(Time(100), func() {})
	if err := soloGroup(e).Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("past-time inject did not panic")
		}
	}()
	e.inject(Time(50), Func(func() {}), 1, 1) // t=50 < now=100: causality violation
}

// TestInjectCausalityCheckAllowsFuture: the invariant accepts strictly
// future injections (the only kind conservative lookahead produces).
func TestInjectCausalityCheckAllowsFuture(t *testing.T) {
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
