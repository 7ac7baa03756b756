// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It is the virtual-time substrate under every IMPACC
// experiment: MPI tasks and device activity queues run as cooperative sim
// processes over a shared virtual clock, and the message handler threads as
// callbacks on it.
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
	"iter"
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

// Callback is work the engine runs inline in engine context: a dispatched
// event, an Event's OnFire hook, or a cross-shard Post. An owner that
// implements Call is scheduled as itself, without a closure; Func adapts a
// plain func(), and since a func value is one pointer the conversion does
// not allocate.
type Callback interface{ Call() }

// Func adapts a plain function to Callback.
type Func func()

// Call runs f.
func (f Func) Call() { f() }

// fireCall fires the event it points at: the Callback FireAt schedules.
type fireCall Event

func (f *fireCall) Call() { (*Event)(f).Fire() }

// event is a scheduled occurrence: cb runs inline in the engine loop, and a
// process's wake-up is the process itself (procCall). Events are pooled on a
// per-engine freelist; no pointer to one may outlive its dispatch.
type event struct {
	eventKey
	cb Callback
}

// eventKey is an event's place in the canonical order.
type eventKey struct {
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
}

// dlKey packs a (depth, lp) pair into an event's dl word.
func dlKey(depth uint32, lp int32) uint64 {
	return uint64(depth)<<32 | uint64(uint32(lp))
}

// eventLess is the total order on events: (at, depth, lp, seq) ascending.
// For events stamped by a single engine this is identical to the historical
// (at, seq) order (see eventKey.dl); across engines it is the canonical
// merge order of the sharded runtime.
func eventLess(a, b *event) bool { return a.before(b.eventKey) }

// before reports whether k precedes o in the (at, depth, lp, seq) order.
func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.dl != o.dl {
		return k.dl < o.dl
	}
	return k.seq < o.seq
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
	// sealed is set from the start of ShardGroup.Run until the engine
	// unwinds: the engine may then change only inside its own dispatch
	// (see own).
	sealed bool
	// curDL and curSeq stamp the event being dispatched (see cur). curDL
	// is idleDL between dispatches, so its depth half reads -1 there;
	// schedule derives same-instant child depths from it (see
	// eventKey.dl).
	curDL, curSeq uint64
	// outbox buffers events posted to other shards' timelines (Post). A
	// ShardGroup drains it at every window barrier; standalone engines
	// never fill it.
	outbox []remoteEvent
	// winCap, when non-zero, caps this engine's dispatches inside the
	// current window (the ShardGroup's deterministic MaxEvents
	// enforcement): reaching it pauses the shard until the barrier, like an
	// exhausted fence, without halting. winCount counts the window's
	// dispatches; winStamps, when non-nil, records their keys so the
	// group can place the budget-exhausting event exactly. All three are
	// rearmed by the coordinator at every window barrier.
	winCap    uint64
	winCount  uint64
	winStamps []eventKey
	// stamping is set while flight or winStamps is armed (ArmFlight,
	// armEventBudget), so the dispatch path tests one flag and account
	// stays small enough to inline.
	stamping bool
	// fence is the bound of the window runUntil is running: no event at or
	// past it may dispatch before the next barrier (see Proc.sleepUntil).
	fence Time
	// inPlace counts sleeps resumed without a coroutine switch.
	inPlace uint64

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
	// cancel points at the cancel flag of the group that runs the engine
	// (see ShardGroup.Cancel), the only state set from outside the
	// simulation goroutine. The run loop polls it before every dispatch.
	cancel *atomic.Bool
	// lookahead is the group's (see NewShardGroup): a post to another
	// shard must land at least this far past the clock.
	lookahead Dur

	// Metrics is the engine's telemetry registry, stamped with its virtual
	// time. NewEngine sets it and it is never nil. Every FIFOResource
	// reports occupancy into it, and higher layers (fabric, devices, message
	// hubs, tasks) register their own families.
	Metrics *telemetry.Registry
}

// NewEngine returns an engine with an empty event queue at time zero and a
// fresh registry whose clock is the engine's virtual time, so metric
// mutations are stamped deterministically.
func NewEngine() *Engine {
	e := &Engine{curDL: idleDL, Metrics: telemetry.NewRegistry()}
	e.Metrics.SetClock(func() int64 { return int64(e.now) })
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

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Live reports how many spawned processes have not yet finished.
func (e *Engine) Live() int { return e.live }

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

// free clears an event's callback and returns it to the freelist.
func (e *Engine) free(ev *event) {
	ev.cb = nil
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
	top := h[0]
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
			end := min(first+4, n)
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
	return top
}

// schedule inserts an event running cb at absolute time t (clamped to now).
// Events for the current instant go to the FIFO nowQ; future events go to
// the heap.
func (e *Engine) schedule(t Time, cb Callback) {
	e.own()
	t = max(t, e.now)
	e.seq++
	ev := e.alloc()
	var depth uint32
	if t == e.now {
		depth = e.depth() + 1
	}
	ev.at, ev.dl, ev.seq, ev.cb = t, dlKey(depth, e.lp), e.seq, cb
	if t == e.now {
		e.nowQ = append(e.nowQ, ev)
	} else {
		e.pushHeap(ev)
	}
}

// own panics when a sealed engine is changed between its dispatches: the
// change comes from another shard's dispatch or from the coordinator, and
// other shards reach this one only through Post. The panic ends the
// dispatch that made the change, whose runUntil reports it.
func (e *Engine) own() {
	if e.sealed && e.curDL == idleDL {
		panic(foreignChange(e.lp))
	}
}

// foreignChange is the panic value of a change to the sealed engine of lp
// (see own). It formats only when reported, which keeps own cheap to
// inline into schedule.
type foreignChange int32

func (lp foreignChange) Error() string {
	return fmt.Sprintf("sim: lp %d changed outside its own dispatch; other shards reach it only through Engine.Post", int32(lp))
}

// remoteEvent is an event bound for another shard's timeline, buffered in
// the scheduling engine's outbox until the next window barrier.
type remoteEvent struct {
	dst *Engine
	at  Time
	cb  Callback
	lp  int32
	seq uint64
}

// Post schedules cb at absolute time at on dst's timeline. When dst is the
// engine itself this is exactly CallAt; otherwise the event is stamped with this
// engine's (lp, seq) — so the merge order is decided by the sender's
// schedule, not by delivery order — and buffered until the coordinator
// exchanges outboxes at a synchronization barrier. A cross-shard post must
// land at least the group's lookahead past the clock, which keeps it at or
// past the window's fence; one below it breaks the group's precondition,
// so it is dropped and halts the engine with a *PanicError of the posting
// dispatch, which the group reports in canonical order.
func (e *Engine) Post(dst *Engine, at Time, cb Callback) {
	if dst == e {
		e.schedule(at, cb)
		return
	}
	e.own()
	if at < e.now+Time(e.lookahead) {
		e.halt(postProc, lookaheadViolation(e.lp, dst.lp, at, e.now, e.lookahead))
		return
	}
	e.seq++
	e.outbox = append(e.outbox, remoteEvent{dst: dst, at: at, cb: cb, lp: e.lp, seq: e.seq})
}

// postProc is the Proc of the *PanicError a post below the lookahead ends
// its run with; the flight recorder files it as a causality stall.
const postProc = "shard-post"

// lookaheadViolation is the *PanicError value of a post from lp src to lp
// dst at at, made at now under lookahead.
func lookaheadViolation(src, dst int32, at, now Time, lookahead Dur) string {
	return fmt.Sprintf("sim: lp %d posted an event to lp %d at t=%d, below its clock t=%d plus the lookahead %d",
		src, dst, int64(at), int64(now), int64(lookahead))
}

// inject lands a cross-shard event in this engine's heap, carrying the
// sender's stamp. Called only between windows, with the engine quiescent;
// Post's lookahead check keeps the event past the engine's clock.
func (e *Engine) inject(at Time, cb Callback, lp int32, seq uint64) {
	ev := e.alloc()
	ev.at, ev.dl, ev.seq, ev.cb = at, dlKey(0, lp), seq, cb
	e.pushHeap(ev)
}

// At schedules fn to run in engine context at absolute virtual time t.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, Func(fn)) }

// CallAt schedules cb to run in engine context at absolute virtual time t:
// At for an owner that is its own callback.
func (e *Engine) CallAt(t Time, cb Callback) { e.schedule(t, cb) }

// FireAt fires ev at absolute virtual time t: At(t, ev.Fire) without the
// closure, for completions whose time is known when they are scheduled.
func (e *Engine) FireAt(t Time, ev *Event) { e.schedule(t, (*fireCall)(ev)) }

// After schedules fn to run in engine context after duration d.
func (e *Engine) After(d Dur, fn func()) { e.schedule(e.now+Time(d), Func(fn)) }

// Proc is a simulation process, of one of two kinds. A stackful process
// (Spawn) is an iter.Pull coroutine: resuming it (next) and parking it
// (yield) switch goroutines directly, without the Go scheduler. A stackless
// process (SpawnStepAt) has no coroutine: each resume calls its step on the
// engine goroutine, and a park point it reaches records its wake-up, reports
// "parked" and leaves the step to return. Both kinds are woken by the same
// events with the same stamps, and at any instant at most one Proc executes.
type Proc struct {
	Name string
	eng  *Engine
	// next resumes the coroutine until it parks or finishes; yield, saved
	// by the coroutine body, hands control back to the engine. Both are nil
	// for a stackless process.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// step is a stackless process's body, called at every resume (nil for
	// a coroutine); parked records that the running step reached a park
	// point, so it must return, and the process has not finished.
	step   func(p *Proc)
	parked bool
	done   bool
	// unwind, when set, makes the next resume panic the haltUnwind
	// sentinel so the coroutine's defers run and it exits.
	unwind bool
	// parkKind and parkWhy describe what the process is waiting for, for
	// deadlock diagnostics; blockedOn joins them only when read, so a wait
	// on a primitive builds no string.
	parkKind, parkWhy string
}

// blockedOn describes what the process is waiting for, e.g. "event:done".
func (p *Proc) blockedOn() string { return p.parkKind + p.parkWhy }

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

// SpawnAt is Spawn with an explicit start time. The process is registered
// and scheduled as SpawnStepAt does, with no step, and given its coroutine.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := e.SpawnStepAt(t, name, nil)
	// A panic in fn, the unwind sentinel included, re-panics in next's
	// caller, whose recover handles it (DESIGN.md §7). next is never stopped:
	// unwindProcs runs each unfinished coroutine to completion instead.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		if !p.unwind {
			fn(p)
		}
	})
	return p
}

// SpawnStepAt creates a stackless process whose body is step, scheduled to
// start at time t like SpawnAt. The engine calls step at the start and at
// every wake-up. A step resumes from state it keeps itself: when a park
// point it calls reports that it parked, the step must return at once, and
// the engine calls it again when the wake-up the park point recorded
// dispatches. A step that returns without parking finishes the process. A
// panic in step halts the run as a panic in a Spawn body does.
func (e *Engine) SpawnStepAt(t Time, name string, step func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e, step: step}
	e.wake(p, t) // first, so a sealed engine that refuses it is left unchanged
	e.procs = append(e.procs, p)
	e.live++
	e.maybeCompactProcs()
	return p
}

// procCall resumes the process it points at: the Callback of a wake-up. A
// finished process's wake-up is skipped (lazy cancellation); a stackless
// process runs its step, and finishes unless the step parked; a coroutine is
// switched to.
type procCall Proc

func (c *procCall) Call() {
	p := (*Proc)(c)
	switch {
	case p.done:
	case p.step != nil:
		p.parked, p.parkKind, p.parkWhy = false, "", ""
		p.step(p)
		if !p.parked {
			p.finish()
		}
	default:
		p.next()
	}
}

// procName names what cb dispatches, in the flight ring and a *PanicError:
// the process a wake-up resumes, or "fn" for any other callback.
func procName(cb Callback) string {
	if p, ok := cb.(*procCall); ok {
		return p.Name
	}
	return "fn"
}

// halt records a panic of process proc in the event being dispatched, unless
// one came before, and halts the engine.
func (e *Engine) halt(proc string, r any) {
	if e.panicked == nil {
		e.panicked = &PanicError{Proc: proc, Value: r, key: e.cur()}
	}
	e.halted = true
}

// finish marks a process done.
func (p *Proc) finish() {
	p.done = true
	p.eng.live--
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

// PanicError reports that a dispatch panicked: Proc names the process a
// wake-up resumed, or is "fn" for any other callback.
type PanicError struct {
	Proc  string
	Value interface{}
	// key places a panic in the canonical order, so a group reports the
	// first of a window's stops.
	key eventKey
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v", e.Proc, e.Value)
}

// Unwrap exposes a panicked error value for errors.As chains.
func (e *PanicError) Unwrap() error { //impacc:allow-unused errors.Is and errors.As call it through an anonymous interface
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

// park suspends the calling process until something wakes it via
// engine.wake; kind+why is what the process waits on. A coroutine blocks
// here and park returns false once it is resumed. A stackless process only
// records the park and park returns true: the step must return, and the
// wake-up calls it again.
func (p *Proc) park(kind, why string) bool {
	if p.step != nil {
		if p.parked {
			panic(fmt.Sprintf("sim: stackless process %s parked on %s%s after parking on %s%s in the same step; a step must return once a park point reports parked",
				p.Name, kind, why, p.parkKind, p.parkWhy))
		}
		p.parked, p.parkKind, p.parkWhy = true, kind, why
		return true
	}
	p.parkKind, p.parkWhy = kind, why
	p.yield(struct{}{})
	if p.unwind {
		panic(haltUnwind{})
	}
	p.parkKind, p.parkWhy = "", ""
	return false
}

// wake schedules process p to resume at time t.
func (e *Engine) wake(p *Proc, t Time) { e.schedule(t, (*procCall)(p)) }

// Sleep suspends the process for duration d of virtual time (a negative d
// sleeps zero). Like every park point it reports whether p, a stackless
// process, parked (see SpawnStepAt); a coroutine sleeps through it and sees
// false.
func (p *Proc) Sleep(d Dur) bool { return p.sleepUntil(p.eng.now+Time(d), "sleep") }

// SleepUntil suspends the process until absolute time t (no-op if t <= now),
// and reports whether a stackless p parked, like Sleep.
func (p *Proc) SleepUntil(t Time) bool { return p.sleepUntil(t, "sleepUntil") }

// inPlaceResume enables sleepUntil's in-place resume. Only tests clear it,
// to run a program through the switching path for comparison.
var inPlaceResume = true

// sleepUntil resumes p at t. When that wake-up is the next event runUntil
// would dispatch anyway (no same-instant event is queued, the heap holds
// nothing at or before t, t lies before the window fence, the window cap is
// not spent, and no halt, unwind or cancel is pending), it takes the
// wake-up in place: it stamps and accounts it exactly as schedule and
// runUntil would, advances the clock and returns without a coroutine
// switch, and a stackless p carries on in its step. Otherwise it parks p
// under kind until the wake event dispatches, and reports whether p parked.
func (p *Proc) sleepUntil(t Time, kind string) bool {
	e := p.eng
	t = max(t, e.now)
	if !inPlaceResume || t >= e.fence || e.nowQHead < len(e.nowQ) ||
		(len(e.heap) > 0 && e.heap[0].at <= t) ||
		(e.winCap != 0 && e.winCount >= e.winCap) ||
		e.halted || e.unwinding || e.cancel.Load() {
		e.wake(p, t)
		return p.park(kind, "")
	}
	e.seq++
	var depth uint32
	if t == e.now {
		depth = e.depth() + 1
	} else {
		// The current instant is exhausted: advance the clock as
		// runUntil does.
		e.nowQ = e.nowQ[:0]
		e.nowQHead = 0
		e.now = t
	}
	e.account(dlKey(depth, e.lp), e.seq, (*procCall)(p))
	e.inPlace++
	return false
}

// CancelError reports that the run was stopped by ShardGroup.Cancel before its
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

// EachBlocked calls fn for every unfinished process and what it currently
// waits on, in spawn order. Call only with the engine quiescent (between
// windows, or after Run) — observers like the progress heartbeat use it at
// group barriers, where every live process is parked.
func (e *Engine) EachBlocked(fn func(name, blockedOn string)) {
	for _, p := range e.procs {
		if p != nil && !p.done {
			fn(p.Name, p.blockedOn())
		}
	}
}

// blockedProcs lists the unfinished processes and what each waits on,
// sorted, for deadlock diagnostics.
func (e *Engine) blockedProcs() []string {
	var blocked []string
	e.EachBlocked(func(name, on string) { blocked = append(blocked, fmt.Sprintf("%s (on %s)", name, on)) })
	sort.Strings(blocked)
	return blocked
}

// runUntil executes events strictly before fence and returns the stop
// error, if any. It returns nil when the queue drains, when the next event
// lies at or past the fence or the window cap is spent (the event stays
// queued; the engine is resumable). When a panic in a dispatch halts the
// engine it returns the *PanicError. The ShardGroup coordinator calls it
// once per window; every limit other than the window cap is enforced at its
// barriers.
func (e *Engine) runUntil(fence Time) (err error) {
	var cb Callback
	// The one recover of a dispatch: a callback's panic, a stackless step's,
	// or a coroutine body's, which next re-panics here.
	defer func() {
		if r := recover(); r != nil {
			e.halt(procName(cb), r)
			if p, ok := cb.(*procCall); ok && !p.done {
				(*Proc)(p).finish()
			}
			e.curDL, err = idleDL, e.panicked
		}
	}()
	e.fence = fence
	for !e.halted {
		if e.cancel.Load() {
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
		cb = ev.cb
		e.account(ev.dl, ev.seq, cb)
		e.free(ev)
		cb.Call()
		e.curDL = idleDL
	}
	return e.panicked
}

// account records the dispatch, at the current instant, of the event
// stamped (dl, seq), which runs cb: its key, the depth its same-instant
// children inherit, the flight ring, the window's stamps and both counters.
// It is the one place a dispatch is counted, whether runUntil popped the
// event or Proc.sleepUntil never queued it.
func (e *Engine) account(dl, seq uint64, cb Callback) {
	e.curDL, e.curSeq = dl, seq
	if e.stamping {
		e.stamp(cb)
	}
	e.dispatched++
	e.winCount++
}

// idleDL is curDL between dispatches: depth -1 in its high half.
const idleDL = uint64(^uint32(0)) << 32

// cur is the key of the event being dispatched, at the current instant:
// the event a process panic happens in.
func (e *Engine) cur() eventKey { return eventKey{e.now, e.curDL, e.curSeq} }

// depth is the depth of the event being dispatched, -1 between dispatches.
func (e *Engine) depth() uint32 { return uint32(e.curDL >> 32) }

// stamp records the dispatch in the flight ring and the window's stamps,
// whichever is armed.
func (e *Engine) stamp(cb Callback) {
	if e.flight != nil {
		e.recordFlight(cb)
	}
	if e.winStamps != nil {
		e.winStamps = append(e.winStamps, e.cur())
	}
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

// unwindProcs unseals the engine, so defers may schedule on it, and
// resumes every unfinished coroutine with the unwind flag set so it panics
// the haltUnwind sentinel, runs its defers, and exits.
// Processes spawned while unwinding (by a defer) are unwound too, without
// ever running their body. A stackless process holds no stack to unwind:
// it is marked finished.
func (e *Engine) unwindProcs() {
	e.sealed = false
	e.unwinding = true
	for i := 0; i < len(e.procs); i++ {
		e.unwindProc(e.procs[i])
	}
	e.unwinding = false
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
}

// unwindProc finishes p for unwindProcs. Its recover swallows the sentinel
// that next re-panics once the body has exited, and halts on a real panic
// from a defer.
func (e *Engine) unwindProc(p *Proc) {
	defer func() {
		if r := recover(); r != nil && !IsHaltUnwind(r) {
			e.halt(p.Name, r)
		}
	}()
	if p.step != nil && !p.done {
		p.finish()
	}
	for !p.done {
		p.unwind = true
		p.next()
	}
}
