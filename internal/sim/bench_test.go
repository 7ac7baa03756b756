package sim

// Engine microbenchmarks: the numbers behind BENCH_sim.json. Run with
//
//	go test -bench=. -benchmem ./internal/sim/
//
// ns/op here is ns/event (each loop iteration schedules and drains one
// event, or one wake/park round trip for process benchmarks).

import (
	"testing"
)

// BenchmarkEngineFnEvents measures the pure event-loop hot path: schedule
// one fn event per iteration and drain the queue. allocs/op is the
// allocations per event.
func BenchmarkEngineFnEvents(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Microsecond, step)
		}
	}
	e.After(Microsecond, step)
	if err := soloGroup(e).Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineHeapChurn keeps a deep event queue (1024 pending events)
// while scheduling and draining, exercising sift-up/sift-down cost.
func BenchmarkEngineHeapChurn(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	b.ReportAllocs()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			// Re-arm at a pseudo-random-ish future offset so pushes land
			// at different heap positions.
			e.After(Dur(1+(n*2654435761)%4096), step)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(Dur(1+i), step)
	}
	if err := soloGroup(e).Run(); err != nil {
		b.Fatal(err)
	}
}

// benchShardGroup drives nShards tick chains to roughly b.N total events
// under a ShardGroup with the given worker count. Tick interval 97 against
// lookahead 1000 gives ~10 events per shard per window, and every 8th tick
// posts a cross-shard event to the right neighbor, so the numbers include
// the window barriers and outbox exchange — the full PDES overhead, not
// just the engine loop.
func benchShardGroup(b *testing.B, nShards, workers int) {
	engines := make([]*Engine, nShards)
	for i := range engines {
		engines[i] = NewLPEngine(i)
	}
	g := NewShardGroup(engines, 1000, workers)
	per := b.N/nShards + 1
	for i := range engines {
		e, dst := engines[i], engines[(i+1)%nShards]
		n := 0
		var tick func()
		tick = func() {
			n++
			if n >= per {
				return
			}
			if n%8 == 0 {
				e.Post(dst, e.Now()+2000, Func(func() {}))
			}
			e.After(97, tick)
		}
		e.After(97, tick)
	}
	b.ReportAllocs()
	if err := g.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardGroup1Shard is the degenerate group — one engine, a single
// infinite window. Its delta against BenchmarkEngineFnEvents is the cost of
// running every simulation through the group coordinator.
func BenchmarkShardGroup1Shard(b *testing.B) { benchShardGroup(b, 1, 1) }

// BenchmarkShardGroup4Shards1Worker is the sharded schedule executed
// serially: window fencing and outbox exchange with zero host parallelism.
func BenchmarkShardGroup4Shards1Worker(b *testing.B) { benchShardGroup(b, 4, 1) }

// BenchmarkShardGroup4Shards4Workers runs the same schedule on four workers:
// speedup on a multi-core host, pure coordination overhead on one core.
func BenchmarkShardGroup4Shards4Workers(b *testing.B) { benchShardGroup(b, 4, 4) }

// BenchmarkProcSleepWake measures the process context-switch path: one
// running process sleeping b.N times (one event + two coroutine switches
// per iteration: next into the process, yield back to the engine).
func BenchmarkProcSleepWake(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventWait measures one Event round trip: a process waits on a
// fresh event that a scheduled callback fires. allocs/op counts the event,
// its waiter list, the callback and whatever the wait itself allocates.
func BenchmarkEventWait(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := e.NewEvent("bench")
			e.After(Microsecond, ev.Fire)
			ev.Wait(p)
		}
	})
	if err := soloGroup(e).Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameTimestampBurst schedules bursts of events at an identical
// timestamp — the pattern produced by a node's message handler completing
// many commands at one virtual instant.
func BenchmarkSameTimestampBurst(b *testing.B) {
	const burst = 64
	e := NewEngine()
	b.ReportAllocs()
	n := 0
	var arm func()
	arm = func() {
		at := e.Now() + Time(Microsecond)
		for i := 0; i < burst; i++ {
			e.At(at, func() { n++ })
		}
		if n+burst < b.N {
			e.At(at, arm)
		}
	}
	arm()
	if err := soloGroup(e).Run(); err != nil {
		b.Fatal(err)
	}
}
