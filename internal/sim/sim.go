// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It is the virtual-time substrate under every IMPACC
// experiment: MPI tasks, message handler threads, and device activity queues
// all run as cooperative sim processes over a shared virtual clock.
//
// Determinism: exactly one process runs at a time. Events are totally
// ordered by (time, sequence number), so two runs with the same inputs
// produce identical virtual schedules regardless of Go's goroutine
// scheduling.
//
// The event queue is a concrete 4-ary min-heap over pooled event structs
// (no container/heap interface boxing, no per-event allocation in steady
// state), with a FIFO side-queue for events scheduled at the current
// instant so same-timestamp bursts never touch the heap. See DESIGN.md
// "Engine internals" for the ordering argument.
package sim

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"impacc/internal/telemetry"
)

// Time is an absolute virtual time in nanoseconds since the start of the run.
type Time int64

// Dur is a span of virtual time in nanoseconds.
type Dur int64

// Common durations.
const (
	Nanosecond  Dur = 1
	Microsecond Dur = 1000
	Millisecond Dur = 1000 * 1000
	Second      Dur = 1000 * 1000 * 1000
)

// Seconds reports the duration in floating-point seconds.
func (d Dur) Seconds() float64 { return float64(d) / 1e9 }

// Seconds reports the time in floating-point seconds since the run started.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (d Dur) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/1e3)
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(d)/1e9)
	}
}

// DurFromSeconds converts floating-point seconds to a Dur, rounding to the
// nearest nanosecond and never returning a negative duration for a
// non-negative input.
func DurFromSeconds(s float64) Dur {
	if s <= 0 {
		return 0
	}
	return Dur(s*1e9 + 0.5)
}

// event is a scheduled occurrence. If proc is non-nil the event resumes that
// process; otherwise fn runs inline in the engine loop. Events are pooled on
// a per-engine freelist; no pointer to one may outlive its dispatch.
type event struct {
	at Time
	// dl packs the canonical tie-break pair (depth, lp) into one word —
	// depth in the high 32 bits, lp in the low 32 — so eventLess compares
	// it numerically and lexicographic (depth, lp) order is preserved.
	//
	// depth is the same-instant causal depth: 0 for events scheduled for a
	// future instant (or injected across shards), d+1 for events scheduled
	// at the current instant while dispatching a depth-d event. Within one
	// engine, seq order already equals (depth, seq) order — children are
	// always stamped after every event of their parent's generation — so
	// the stamp changes nothing for a single engine; it exists so events
	// from different shards merge into one total order that a single
	// engine would also have produced.
	//
	// lp is the logical process (shard) that scheduled the event. Ties at
	// equal (at, depth) between shards break on (lp, seq), which depends
	// only on the schedule, never on host scheduling.
	dl  uint64
	seq uint64

	proc *Proc
	fn   func()
}

// dlKey packs a (depth, lp) pair into an event's dl word.
func dlKey(depth uint32, lp int32) uint64 {
	return uint64(depth)<<32 | uint64(uint32(lp))
}

// eventLess is the total order on events: (at, depth, lp, seq) ascending.
// For events stamped by a single engine this is identical to the historical
// (at, seq) order (see event.dl); across engines it is the canonical
// merge order of the sharded runtime.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dl != b.dl {
		return a.dl < b.dl
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation engine. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now Time
	seq uint64

	// lp is this engine's logical-process id when it runs as one shard of a
	// ShardGroup (the node index under core's placement). Standalone
	// engines keep 0; every event carries its scheduler's lp so cross-shard
	// ties break deterministically.
	lp int32
	// dispatchDepth is the depth of the event currently being dispatched,
	// or -1 between dispatches; schedule derives same-instant child depths
	// from it (see event.depth).
	dispatchDepth int32
	// outbox buffers events posted to other shards' timelines (Post). A
	// ShardGroup drains it at every window barrier; standalone engines
	// never fill it.
	outbox []remoteEvent
	// winCap, when non-zero, caps this engine's dispatches inside the
	// current window (the ShardGroup's deterministic MaxEvents
	// enforcement): reaching it pauses the shard until the barrier, like an
	// exhausted fence, without halting. winCount counts the window's
	// dispatches; winStamps, when non-nil, records their canonical
	// (at, dl, seq) stamps so the group can name the budget-exhausting
	// event exactly. All three are rearmed by the coordinator at every
	// window barrier.
	winCap    uint64
	winCount  uint64
	winStamps []limitStamp

	// heap is a 4-ary min-heap on (at, seq) holding every pending event
	// scheduled for a future instant. Events for the current instant
	// bypass it (see nowQ).
	heap []*event
	// nowQ is a FIFO of events scheduled at exactly the current virtual
	// time. Because seq grows monotonically and the clock never moves
	// backwards, every heap entry at time now predates every nowQ entry,
	// so "drain heap entries at now, then drain nowQ" reproduces the
	// global (at, seq) order without any heap traffic for same-instant
	// bursts. nowQHead indexes the next entry to dispatch.
	nowQ     []*event
	nowQHead int
	// pool is the event freelist. Dispatch returns structs here; schedule
	// reuses them, so steady-state scheduling does not allocate.
	pool []*event

	parked chan struct{}
	// procs holds every spawned process, kept only for deadlock
	// diagnostics and post-halt unwinding; finished entries are skipped
	// (and compacted opportunistically). live counts unfinished ones.
	procs     []*Proc
	live      int
	halted    bool
	unwinding bool
	panicked  *PanicError

	// dispatched counts events dispatched so far (see Events).
	dispatched uint64
	// flight, when non-nil, is the flight recorder's ring of recent event
	// stamps (see flight.go); flightHead is the next slot to overwrite.
	flight     []EventStamp
	flightHead int
	// cancelled is set by Cancel — the only engine field touched from
	// outside the simulation goroutine, hence atomic. The run loop polls
	// it before every dispatch, and a ShardGroup reads it (through
	// Cancelled) at every window barrier.
	cancelled atomic.Bool

	// Metrics is the engine's telemetry registry. Every FIFOResource
	// reports occupancy into it, and higher layers (fabric, devices,
	// message hubs, tasks) register their own families. Replace it (via
	// AdoptMetrics) before creating resources to aggregate several runs
	// into one registry.
	Metrics *telemetry.Registry
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	e := &Engine{
		parked:        make(chan struct{}),
		dispatchDepth: -1,
	}
	e.AdoptMetrics(telemetry.NewRegistry())
	return e
}

// NewLPEngine returns an engine whose events are stamped with logical
// process id lp. Shard coordinators must create their member engines this
// way before scheduling anything on them, so every event (including pre-run
// spawns) carries the shard that produced it.
func NewLPEngine(lp int) *Engine {
	e := NewEngine()
	e.lp = int32(lp)
	return e
}

// LP returns the engine's logical-process id (0 for standalone engines).
func (e *Engine) LP() int { return int(e.lp) }

// AdoptMetrics makes reg the engine's registry and points its clock at the
// virtual time, so metric mutations are stamped deterministically.
func (e *Engine) AdoptMetrics(reg *telemetry.Registry) {
	e.Metrics = reg
	reg.SetClock(func() int64 { return int64(e.now) })
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live reports how many spawned processes have not yet finished.
func (e *Engine) Live() int { return e.live }

// Events reports how many events the engine has dispatched so far.
func (e *Engine) Events() uint64 { return e.dispatched }

// Cancel asks a running engine to stop. It is the one engine entry point
// that is safe to call from any goroutine at any time: it only sets an
// atomic flag, which the run loop polls before each dispatch. Run then
// unwinds every unfinished process (defers run, no goroutines leak) and
// returns a *CancelError. Cancelling an engine that never runs again is a
// no-op beyond marking it cancelled.
func (e *Engine) Cancel() { e.cancelled.Store(true) }

// Cancelled reports whether Cancel has been called.
func (e *Engine) Cancelled() bool { return e.cancelled.Load() }

// alloc takes an event struct off the freelist, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return ev
	}
	return &event{}
}

// free clears an event's references and returns it to the freelist.
func (e *Engine) free(ev *event) {
	ev.proc = nil
	ev.fn = nil
	e.pool = append(e.pool, ev)
}

// pushHeap inserts ev into the 4-ary heap (sift-up).
func (e *Engine) pushHeap(ev *event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// popHeap removes and returns the minimum event (sift-down).
func (e *Engine) popHeap() *event {
	h := e.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		// Re-seat the last element at the root and sift down, picking
		// the smallest of up to four children each level.
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventLess(h[c], h[best]) {
					best = c
				}
			}
			if !eventLess(h[best], last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	e.heap = h
	return min
}

// schedule inserts an event at absolute time t (clamped to now). Events for
// the current instant go to the FIFO nowQ; future events go to the heap.
func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	var depth uint32
	if t == e.now {
		depth = uint32(e.dispatchDepth + 1)
	}
	ev.at, ev.dl, ev.seq, ev.proc, ev.fn = t, dlKey(depth, e.lp), e.seq, p, fn
	if t == e.now {
		e.nowQ = append(e.nowQ, ev)
	} else {
		e.pushHeap(ev)
	}
}

// remoteEvent is an event bound for another shard's timeline, buffered in
// the scheduling engine's outbox until the next window barrier.
type remoteEvent struct {
	dst *Engine
	at  Time
	fn  func()
	lp  int32
	seq uint64
}

// Post schedules fn at absolute time at on dst's timeline. When dst is the
// engine itself this is exactly At; otherwise the event is stamped with this
// engine's (lp, seq) — so the merge order is decided by the sender's
// schedule, not by delivery order — and buffered until the coordinator
// exchanges outboxes at a synchronization barrier. Cross-shard posts must
// target a strictly future instant on the receiving shard; conservative
// lookahead guarantees that, and the IMPACC_SIM_CHECK invariant check turns
// violations into panics.
func (e *Engine) Post(dst *Engine, at Time, fn func()) {
	if dst == e {
		e.schedule(at, nil, fn)
		return
	}
	e.seq++
	e.outbox = append(e.outbox, remoteEvent{dst: dst, at: at, fn: fn, lp: e.lp, seq: e.seq})
}

// simCheck gates the cross-shard causality assertion: set IMPACC_SIM_CHECK
// to any non-empty value to panic on an event injected into a shard's past.
var simCheck = os.Getenv("IMPACC_SIM_CHECK") != ""

// inject lands a cross-shard event in this engine's heap, carrying the
// sender's stamp. Called only between windows, with the engine quiescent.
func (e *Engine) inject(at Time, fn func(), lp int32, seq uint64) {
	if simCheck && at <= e.now && e.dispatched > 0 {
		panic(fmt.Sprintf("sim: causality violation: event from lp %d injected at t=%d into shard %d already at t=%d",
			lp, int64(at), e.lp, int64(e.now)))
	}
	ev := e.alloc()
	ev.at, ev.dl, ev.seq, ev.fn = at, dlKey(0, lp), seq, fn
	e.pushHeap(ev)
}

// At schedules fn to run in engine context at absolute virtual time t.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run in engine context after duration d.
func (e *Engine) After(d Dur, fn func()) { e.schedule(e.now+Time(d), nil, fn) }

// Proc is a simulation process: a goroutine that runs cooperatively under
// the engine. At any instant at most one Proc executes.
type Proc struct {
	Name   string
	eng    *Engine
	resume chan struct{}
	done   bool
	// unwind, when set, makes the next resume panic the haltUnwind
	// sentinel so the goroutine's defers run and it exits.
	unwind bool
	// blockedOn describes what the process is waiting for, for deadlock
	// diagnostics.
	blockedOn string
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn creates a process executing fn, scheduled to start at the current
// virtual time (after already-queued events at this time).
//
// If fn panics, the engine captures the panic value, halts the run, and
// Run returns a *PanicError — a stray panic in one process must not hang
// the host program.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e, resume: make(chan struct{})}
	e.procs = append(e.procs, p)
	e.live++
	e.maybeCompactProcs()
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && !IsHaltUnwind(r) {
				if e.panicked == nil {
					e.panicked = &PanicError{Proc: name, Value: r}
				}
				e.halted = true
			}
			p.done = true
			e.live--
			e.parked <- struct{}{}
		}()
		if !p.unwind {
			fn(p)
		}
	}()
	e.schedule(t, p, nil)
	return p
}

// maybeCompactProcs drops finished entries from the diagnostics slice once
// they dominate it, keeping Spawn amortized O(1) without unbounded growth.
func (e *Engine) maybeCompactProcs() {
	if e.unwinding || len(e.procs) < 64 || len(e.procs) < 2*e.live {
		return
	}
	kept := e.procs[:0]
	for _, p := range e.procs {
		if !p.done {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(e.procs); i++ {
		e.procs[i] = nil
	}
	e.procs = kept
}

// PanicError reports that a simulation process panicked.
type PanicError struct {
	Proc  string
	Value interface{}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v", e.Proc, e.Value)
}

// Unwrap exposes a panicked error value for errors.As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// haltUnwind is the sentinel panicked through abandoned processes after a
// halt so their goroutines (and defers) unwind instead of leaking.
type haltUnwind struct{}

// IsHaltUnwind reports whether a recovered panic value is the engine's
// post-halt unwind sentinel. Code that recovers inside a sim process (to
// translate panics into errors, say) must re-panic values for which this
// returns true, or halted engines cannot release their goroutines.
func IsHaltUnwind(v interface{}) bool {
	_, ok := v.(haltUnwind)
	return ok
}

// park blocks the calling process and returns control to the engine loop.
// Something must later wake the process via engine.wake.
func (p *Proc) park(why string) {
	p.blockedOn = why
	p.eng.parked <- struct{}{}
	<-p.resume
	if p.unwind {
		panic(haltUnwind{})
	}
	p.blockedOn = ""
}

// wake schedules process p to resume at time t.
func (e *Engine) wake(p *Proc, t Time) { e.schedule(t, p, nil) }

// runProc hands control to p until it parks or finishes.
func (e *Engine) runProc(p *Proc) {
	p.resume <- struct{}{}
	<-e.parked
}

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Dur) {
	if d < 0 {
		d = 0
	}
	p.eng.wake(p, p.eng.now+Time(d))
	p.park("sleep")
}

// SleepUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	p.eng.wake(p, t)
	p.park("sleepUntil")
}

// Yield reschedules the process at the current time, letting other
// already-queued events at this instant run first.
func (p *Proc) Yield() {
	p.eng.wake(p, p.eng.now)
	p.park("yield")
}

// CancelError reports that the run was stopped by Engine.Cancel before its
// event queue drained. The engine still unwound every process, so the halt
// is clean — but nothing about the truncated run (telemetry, reports) is
// deterministic, because the cancel instant came from outside virtual time.
type CancelError struct {
	At Time // virtual time at which the cancel was observed
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("sim: run cancelled at t=%v", Dur(e.At))
}

// LimitError reports that a configured resource cap (ShardGroup.Deadline or
// ShardGroup.MaxEvents) stopped the run. Unlike a cancel, hitting a limit is
// deterministic: the same run with the same caps always stops at the same
// event.
type LimitError struct {
	Resource string // "vtime" or "events"
	Limit    int64  // the configured cap
	At       Time   // virtual time at which the cap was hit
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: %s limit %d exceeded at t=%v", e.Resource, e.Limit, Dur(e.At))
}

// DeadlockError reports that the run ended with live processes blocked on
// conditions that can never fire.
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked: %v",
		Dur(e.Time), len(e.Blocked), e.Blocked)
}

// timeInfinity is a fence beyond any schedulable instant.
const timeInfinity = Time(1<<63 - 1)

// Run executes events until the queue drains. It returns a *DeadlockError if
// processes remain blocked when no events are left, or nil on clean
// completion (all spawned processes finished).
//
// However the run ends — clean, halted, deadlocked, or panicked — Run
// unwinds every unfinished process before returning: each is resumed with a
// private sentinel that panics through its stack (running defers) and is
// swallowed by the engine, so no goroutines leak and tools may run many
// engines in one process.
//
// A standalone engine runs as the one shard of a degenerate ShardGroup, so
// there is a single run loop; set limits on a group to cap a run.
func (e *Engine) Run() error { return NewShardGroup([]*Engine{e}, 0, 1).Run() }

// EachBlocked calls fn for every unfinished process and what it currently
// waits on, in spawn order. Call only with the engine quiescent (between
// windows, or after Run) — observers like the progress heartbeat use it at
// group barriers, where every live process is parked.
func (e *Engine) EachBlocked(fn func(name, blockedOn string)) {
	for _, p := range e.procs {
		if p != nil && !p.done {
			fn(p.Name, p.blockedOn)
		}
	}
}

// blockedProcs lists the unfinished processes and what each waits on,
// sorted, for deadlock diagnostics.
func (e *Engine) blockedProcs() []string {
	var blocked []string
	for _, p := range e.procs {
		if p.done {
			continue
		}
		blocked = append(blocked, fmt.Sprintf("%s (on %s)", p.Name, p.blockedOn))
	}
	sort.Strings(blocked)
	return blocked
}

// runUntil executes events strictly before fence and returns the stop
// error, if any. It returns nil when the queue drains, when the next event
// lies at or past the fence or the window cap is spent (the event stays
// queued; the engine is resumable), or when the engine halts (by Halt or a
// process panic — check Halted / panicked). The ShardGroup coordinator
// calls it once per window; every limit other than the window cap is
// enforced at its barriers.
func (e *Engine) runUntil(fence Time) error {
	for !e.halted {
		if e.cancelled.Load() {
			e.halted = true
			return &CancelError{At: e.now}
		}
		// An exhausted window cap pauses the shard without halting it — the
		// next event stays queued and the group decides at the barrier
		// whether the combined budget is spent (see checkEventBudget).
		if e.winCap != 0 && e.winCount >= e.winCap {
			return nil
		}
		var ev *event
		switch {
		case len(e.heap) > 0 && e.heap[0].at == e.now:
			// Heap entries at the current instant were scheduled
			// before the clock reached it (or injected with depth 0),
			// so they precede every nowQ entry in canonical order.
			ev = e.popHeap()
		case e.nowQHead < len(e.nowQ):
			ev = e.nowQ[e.nowQHead]
			e.nowQ[e.nowQHead] = nil
			e.nowQHead++
		default:
			// Current instant exhausted: advance the clock.
			e.nowQ = e.nowQ[:0]
			e.nowQHead = 0
			if len(e.heap) == 0 {
				return nil
			}
			if e.heap[0].at >= fence {
				return nil // window exhausted; event stays queued
			}
			ev = e.popHeap()
			e.now = ev.at
		}
		// Copy out and free before dispatch: the handler may schedule,
		// which reuses pooled events.
		p, fn := ev.proc, ev.fn
		e.dispatchDepth = int32(ev.dl >> 32)
		if e.flight != nil {
			e.recordFlight(ev.at, ev.dl, ev.seq, p)
		}
		if e.winStamps != nil {
			e.winStamps = append(e.winStamps, limitStamp{at: ev.at, dl: ev.dl, seq: ev.seq})
		}
		e.free(ev)
		e.dispatched++
		e.winCount++
		if p != nil {
			if !p.done { // lazy cancellation: skip dead processes
				e.runProc(p)
			}
		} else if fn != nil {
			fn()
		}
		e.dispatchDepth = -1
	}
	return nil
}

// nextAt reports the time of the engine's earliest pending event, or false
// when its queues are empty.
func (e *Engine) nextAt() (Time, bool) {
	if e.nowQHead < len(e.nowQ) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// unwindProcs resumes every unfinished process with the unwind flag set so
// it panics the haltUnwind sentinel, runs its defers, and exits. Processes
// spawned while unwinding (by a defer) are unwound too, without ever
// running their body.
func (e *Engine) unwindProcs() {
	e.unwinding = true
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		for !p.done {
			p.unwind = true
			e.runProc(p)
		}
	}
	e.unwinding = false
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
}

// Halt stops the run after the current event completes. Run then unwinds
// any remaining processes (their defers run; their bodies do not continue)
// before returning, so halting leaks nothing and is safe in tests and
// long-lived tools alike.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether the engine stopped early: via Halt, a process
// panic, or a cancel observed between its dispatches.
func (e *Engine) Halted() bool { return e.halted }
