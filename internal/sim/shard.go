package sim

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ShardGroup runs several engines — shards of one simulation — under
// conservative-lookahead parallel discrete-event simulation (PDES). Each
// shard owns a disjoint slice of the simulated machine (core shards by
// node), so the only state crossing shards is explicit: events posted with
// Engine.Post. The group advances all shards window by window:
//
//	T     = min over shards of the next pending event time
//	fence = T + lookahead
//
// where lookahead is a lower bound on the virtual latency of any
// cross-shard interaction. Every cross-shard event generated inside a
// window therefore lands at or after the fence, so shards can execute the
// whole window concurrently without observing each other; outboxes are
// exchanged at the barrier and injected carrying the sender's (lp, seq)
// stamp, which — together with the (at, depth, lp, seq) event order — makes
// the merged schedule a pure function of the inputs. A group of one shard
// degenerates to one serial window, split only by beats and the event
// budget, so every run, one engine or sharded, goes through this one driver
// and its one set of limits.
//
// Worker count changes only wall-clock behaviour, never a single simulated
// byte: within a window each shard runs sequentially and shards share no
// state, so any assignment of shards to workers dispatches the same events
// at the same virtual times.
type ShardGroup struct {
	engines   []*Engine
	lookahead Dur
	workers   int

	// Deadline, when non-zero, is a hard cap on the group's global virtual
	// clock (the minimum next event time): an event exactly at Deadline
	// still runs, and the first one past it makes Run return a *LimitError.
	// Hosting tools (the bench harness, impacc-serve) use it to kill
	// runaway jobs.
	Deadline Time
	// MaxEvents, when non-zero, bounds the shards' combined dispatch count:
	// Run returns a *LimitError naming the MaxEvents-th event in canonical
	// order (see armEventBudget).
	MaxEvents uint64

	// BeatEvery, when positive, divides virtual time into beat intervals
	// and calls OnBeat at every boundary B = k*BeatEvery once every event
	// at or before B has been dispatched on every shard. The window fence
	// is clamped to B+1 so no shard runs past a pending boundary, which
	// makes the observed state at B a pure function of the simulation —
	// independent of worker count, shard count, and lookahead. Beats add
	// barriers (wall-clock cost) but never change a simulated byte: window
	// structure only decides when shards synchronize, not what they run.
	BeatEvery Dur
	// OnBeat receives each beat boundary, in increasing order, with every
	// shard quiescent (the coordinator goroutine calls it between windows).
	// Set it together with BeatEvery before Run.
	OnBeat func(at Time)
	// OnWindow, when non-nil, is called at every window barrier after the
	// exchange, with every shard quiescent, with the horizon: the earliest
	// pending event on any shard. Every event strictly before it has been
	// dispatched on every shard, and every future record any shard produces
	// will be stamped at or after it. Streaming observers use it to flush
	// safely (see core's streaming tracer). A drained run skips it.
	OnWindow func(horizon Time)
	// Check, when non-nil, runs right after OnWindow with the same horizon;
	// a non-nil error ends the run (core's task-heap cap). Unlike OnWindow,
	// Check may stop the run, so it must decide from state before horizon
	// alone.
	Check func(horizon Time) error

	nextBeat Time

	// flightCap, when positive, arms a per-shard flight recorder of the
	// most recent flightCap event stamps (see ArmFlight / Stall); stall
	// holds the dump captured by Run on an abnormal end.
	flightCap int
	stall     *StallReport

	// cancelled is the run's one cancel flag; every shard's run loop polls
	// it through Engine.cancel.
	cancelled atomic.Bool
}

// NewShardGroup builds a group over engines created with NewLPEngine (lp =
// index). lookahead must be a conservative lower bound on cross-shard event
// latency, which Engine.Post enforces: a positive value lets shards run
// concurrently; zero or negative forces fully serial single-window
// execution, which is only correct when the group has exactly one engine
// (callers with no usable lookahead must place everything on one shard).
// workers bounds how many shards execute concurrently; <= 1 is serial.
func NewShardGroup(engines []*Engine, lookahead Dur, workers int) *ShardGroup {
	if len(engines) > 1 && lookahead <= 0 {
		panic("sim: multi-shard group requires positive lookahead")
	}
	g := &ShardGroup{engines: engines, lookahead: lookahead, workers: max(workers, 1)}
	for i, e := range engines {
		if e.lp != int32(i) {
			panic("sim: shard engines must be created with NewLPEngine(index)")
		}
		e.cancel = &g.cancelled
		e.lookahead = lookahead
	}
	return g
}

// Cancel asks the group to stop. It is the one entry point safe from any
// goroutine at any time: it sets the group's flag, which every shard's run
// loop polls before each dispatch. Run then unwinds every unfinished
// process (defers run, no goroutines leak) and returns a *CancelError.
func (g *ShardGroup) Cancel() { g.cancelled.Store(true) }

// Cancelled reports whether Cancel has been called.
func (g *ShardGroup) Cancelled() bool { return g.cancelled.Load() }

// Events reports the total number of events dispatched across all shards.
func (g *ShardGroup) Events() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.dispatched
	}
	return n
}

// MaxNow returns the latest local clock over the shards — the time of the
// last event dispatched anywhere, matching the final clock of an equivalent
// serial engine.
func (g *ShardGroup) MaxNow() Time {
	var t Time
	for _, e := range g.engines {
		t = max(t, e.now)
	}
	return t
}

// Run advances all shards to completion and returns exactly what a single
// serial engine over the merged schedule would have: nil on a clean drain,
// *DeadlockError (with the union of blocked processes), *LimitError on a
// Deadline/MaxEvents cap, *CancelError, or *PanicError. However it ends,
// every unfinished process on every shard is unwound before returning.
func (g *ShardGroup) Run() error {
	// Every engine stays sealed until it unwinds (see Engine.own).
	for _, e := range g.engines {
		e.sealed = true
	}
	err := g.windows()
	if err == nil {
		if blocked := g.blockedUnion(); len(blocked) > 0 {
			err = &DeadlockError{Time: g.MaxNow(), Blocked: blocked}
		}
	}
	g.captureStall(err)
	for _, e := range g.engines {
		e.unwindProcs()
	}
	if err == nil {
		if p := g.firstPanic(); p != nil {
			// A defer panicked for real while unwinding; surface it.
			err = p
		}
	}
	return err
}

// windows is the barrier loop: pick the window, run every shard with work
// in it (concurrently when workers allow), exchange outboxes, repeat.
func (g *ShardGroup) windows() error {
	n := len(g.engines)
	errs := make([]error, n)
	active := make([]*Engine, 0, n)
	if g.BeatEvery > 0 {
		g.nextBeat = Time(g.BeatEvery)
	}
	// T is the horizon, the barrier's one safe instant: the earliest
	// pending event on any shard, scanned once per barrier after the
	// exchange. The next window starts at it, and OnWindow and Check see it.
	T, ok := g.minNextAt()
	for {
		if g.Cancelled() {
			return &CancelError{At: g.MaxNow()}
		}
		if !ok {
			return nil // drained
		}
		// Every beat boundary strictly before the next pending event is
		// final: no event at or before it remains anywhere, so the state
		// it observes can never change. Fire them in order before the
		// deadline checks so a capped run still reports its last beats.
		for g.BeatEvery > 0 && g.nextBeat < T {
			if g.Deadline != 0 && g.nextBeat > g.Deadline {
				break
			}
			if g.OnBeat != nil {
				g.OnBeat(g.nextBeat)
			}
			g.nextBeat += Time(g.BeatEvery)
		}
		if g.Deadline != 0 && T > g.Deadline {
			return &LimitError{Resource: "vtime", Limit: int64(g.Deadline), At: g.MaxNow()}
		}
		fence := timeInfinity
		if n > 1 {
			fence = T + Time(g.lookahead)
		}
		if g.Deadline != 0 && fence > g.Deadline+1 {
			fence = g.Deadline + 1
		}
		// Clamp the window to the next beat boundary so no shard dispatches
		// an event past a boundary before the boundary is observed. The
		// fence stays strictly above T (nextBeat >= T here), so every
		// window still makes progress.
		if g.BeatEvery > 0 && fence > g.nextBeat+1 {
			fence = g.nextBeat + 1
		}
		active = active[:0]
		for _, e := range g.engines {
			if at, ok := e.nextAt(); ok && at < fence {
				active = append(active, e)
			}
		}
		g.armEventBudget()
		g.runWindow(active, fence, errs)
		if err := g.windowErr(errs); err != nil {
			return err
		}
		g.exchange()
		if T, ok = g.minNextAt(); !ok {
			continue
		}
		if g.OnWindow != nil {
			g.OnWindow(T)
		}
		if g.Check != nil {
			if err := g.Check(T); err != nil {
				return err
			}
		}
	}
}

// windowErr is the error that ends the run at this barrier, or nil: the
// canonically first of the window's process panics and its
// budget-exhausting event, which is where a serial engine over the merged
// schedule stops, though other shards may have run past it. A cancel has
// no place in the schedule; it ends the run unless a panic does.
func (g *ShardGroup) windowErr(errs []error) error {
	var first *PanicError
	var cancel error
	for _, err := range errs {
		if pe, ok := err.(*PanicError); ok {
			if first == nil || pe.key.before(first.key) {
				first = pe
			}
		} else if err != nil {
			cancel = err
		}
	}
	at, limit := g.checkEventBudget()
	switch {
	case first != nil && (limit == nil || !at.before(first.key)):
		return first
	case cancel != nil:
		return cancel
	}
	return limit
}

// exchange moves cross-shard events from outboxes into their destination
// heaps in shard order; the (lp, seq) stamps injected here fix the merge
// order independent of flush order.
func (g *ShardGroup) exchange() {
	for _, e := range g.engines {
		for i := range e.outbox {
			re := e.outbox[i]
			e.outbox[i] = remoteEvent{}
			re.dst.inject(re.at, re.cb, re.lp, re.seq)
		}
		e.outbox = e.outbox[:0]
	}
}

// runWindow advances every active shard to the fence, on up to g.workers
// concurrent workers, the calling goroutine among them. Each errs slot is
// owned by one shard, so the error collection is as deterministic as the
// shards themselves.
//
// Workers claim contiguous blocks of active, which is in lp order, about
// blocksPerWorker each. Neighbouring shards' state shares cache lines
// (core allocates a node's engine, hub and tasks next to the previous
// node's), so a block keeps it on one core; claiming shards one at a time
// hands neighbours to different cores, whose writes to the shared lines
// stall both.
func (g *ShardGroup) runWindow(active []*Engine, fence Time, errs []error) {
	w := min(g.workers, len(active))
	if w <= 1 {
		for _, e := range active {
			errs[e.lp] = e.runUntil(fence)
		}
		return
	}
	block := (len(active) + blocksPerWorker*w - 1) / (blocksPerWorker * w)
	var next atomic.Int64
	work := func() {
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= len(active) {
				return
			}
			for _, e := range active[lo:min(lo+block, len(active))] {
				errs[e.lp] = e.runUntil(fence)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// blocksPerWorker is how many contiguous blocks runWindow cuts a window's
// active shards into per worker: enough that a worker left with a slow
// block does not hold up the barrier for long, few enough that each block
// spans many shards.
const blocksPerWorker = 8

// exactThreshold is the remaining-budget distance below which shards start
// recording canonical stamps for exact MaxEvents attribution. It must be at
// least a few times the shard count so the coarse mode's per-shard window
// caps stay >= 1.
func (g *ShardGroup) exactThreshold() int64 {
	return max(int64(4*len(g.engines)), 4096)
}

// armEventBudget distributes the remaining MaxEvents budget to the shards
// for one window. Far from the cap every shard gets an equal slice small
// enough that the window total can never cross the budget; within
// exactThreshold of it, each shard may dispatch up to the full remainder
// and records the time of every dispatch so checkEventBudget can attribute
// the limit error exactly. Both caps are pure functions of barrier state, so the
// whole trajectory — including the final window's bounded overshoot — is
// identical at every worker count.
func (g *ShardGroup) armEventBudget() {
	if g.MaxEvents == 0 {
		return
	}
	remaining := int64(g.MaxEvents) - int64(g.Events())
	exact := remaining <= g.exactThreshold()
	for _, e := range g.engines {
		e.winCount = 0
		if exact {
			e.winCap = uint64(remaining)
			if e.winStamps == nil {
				// Non-nil arms recording; the slice grows only as the
				// shard dispatches, so an idle shard holds nothing.
				e.winStamps = []eventKey{}
			} else {
				e.winStamps = e.winStamps[:0]
			}
		} else {
			// remaining > exactThreshold >= 4*shards keeps this cap >= 2.
			e.winCap = uint64(remaining / int64(2*len(g.engines)))
			e.winStamps = nil
		}
		e.stamping = e.flight != nil || e.winStamps != nil
	}
}

// checkEventBudget returns a *LimitError once the shards' combined
// dispatch count reaches MaxEvents, with the key of the canonical
// (at, depth, lp, seq)-least event that exhausted the budget — the same
// event a serial engine over the merged schedule would have stopped at —
// so the error bytes match at every worker count.
func (g *ShardGroup) checkEventBudget() (eventKey, error) {
	if g.MaxEvents == 0 {
		return eventKey{}, nil
	}
	total := g.Events()
	if total < g.MaxEvents {
		return eventKey{}, nil
	}
	// The budget can only be crossed with stamp recording armed (far from
	// the cap the window caps keep the total strictly below it), so every
	// dispatch of the crossing window is stamped. The budget ran out at the
	// r-th smallest key, where r is the pre-window remainder.
	var windowEvents int64
	for _, e := range g.engines {
		windowEvents += int64(e.winCount)
	}
	r := int64(g.MaxEvents) - (int64(total) - windowEvents)
	var stamps []eventKey
	for _, e := range g.engines {
		stamps = append(stamps, e.winStamps...)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].before(stamps[j]) })
	at := eventKey{at: g.MaxNow()}
	if r >= 1 && int64(len(stamps)) >= r {
		at = stamps[r-1]
	}
	return at, &LimitError{Resource: "events", Limit: int64(g.MaxEvents), At: at.at}
}

// NextAt exposes the group's global clock to observers: the earliest
// pending event time across shards, false when drained. Only meaningful
// with every shard quiescent (between windows — e.g. from OnBeat).
func (g *ShardGroup) NextAt() (Time, bool) { return g.minNextAt() }

// EachBlocked calls fn for every unfinished process on every shard, in
// shard order then spawn order. Only meaningful with every shard quiescent.
func (g *ShardGroup) EachBlocked(fn func(name, blockedOn string)) {
	for _, e := range g.engines {
		e.EachBlocked(fn)
	}
}

// LiveProcs reports the number of spawned, unfinished processes across
// shards.
func (g *ShardGroup) LiveProcs() int {
	n := 0
	for _, e := range g.engines {
		n += e.Live()
	}
	return n
}

// Shards reports the number of shard engines in the group.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// minNextAt is the group's global clock: the earliest pending event time
// across shards.
func (g *ShardGroup) minNextAt() (Time, bool) {
	var t Time
	found := false
	for _, e := range g.engines {
		if at, ok := e.nextAt(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	return t, found
}

// firstPanic returns the recorded panic of the lowest shard index, if any.
func (g *ShardGroup) firstPanic() *PanicError {
	for _, e := range g.engines {
		if e.panicked != nil {
			return e.panicked
		}
	}
	return nil
}

// blockedUnion merges every shard's blocked-process diagnostics, sorted.
func (g *ShardGroup) blockedUnion() []string {
	var blocked []string
	for _, e := range g.engines {
		if e.live > 0 {
			blocked = append(blocked, e.blockedProcs()...)
		}
	}
	sort.Strings(blocked)
	return blocked
}
