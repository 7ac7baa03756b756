package sim

import (
	"slices"
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
	// OnWindow, when non-nil, is called after every window barrier with the
	// fence the window ran to: every event strictly before the fence has
	// been dispatched on every shard, and every future record any shard
	// produces will be stamped at or after it. Streaming observers use it
	// to flush safely (see core's streaming tracer).
	OnWindow func(fence Time)
	// Check, when non-nil, runs after every window's exchange with every
	// shard quiescent; a non-nil error ends the run (core's task-heap cap).
	// horizon is the earliest time any event can still run at; a drained
	// run skips it. Unlike OnWindow, Check may stop the run, so it must
	// decide from state before horizon alone.
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
// latency: a positive value lets shards run concurrently; zero or negative
// forces fully serial single-window execution, which is only correct when
// the group has exactly one engine (callers with no usable lookahead must
// place everything on one shard). workers bounds how many shards execute
// concurrently; <= 1 is serial.
func NewShardGroup(engines []*Engine, lookahead Dur, workers int) *ShardGroup {
	if len(engines) > 1 && lookahead <= 0 {
		panic("sim: multi-shard group requires positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	g := &ShardGroup{engines: engines, lookahead: lookahead, workers: workers}
	for i, e := range engines {
		if e.lp != int32(i) {
			panic("sim: shard engines must be created with NewLPEngine(index)")
		}
		e.cancel = &g.cancelled
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
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Run advances all shards to completion and returns exactly what a single
// serial engine over the merged schedule would have: nil on a clean drain,
// *DeadlockError (with the union of blocked processes), *LimitError on a
// Deadline/MaxEvents cap, *CancelError, or *PanicError. However it ends,
// every unfinished process on every shard is unwound before returning.
func (g *ShardGroup) Run() error {
	stopErr := g.windows()
	var err error
	if p := g.firstPanic(); p != nil {
		err = p
	} else if stopErr != nil {
		err = stopErr
	} else if blocked := g.blockedUnion(); len(blocked) > 0 {
		err = &DeadlockError{Time: g.MaxNow(), Blocked: blocked}
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
	for {
		if g.Cancelled() {
			return &CancelError{At: g.MaxNow()}
		}
		T, ok := g.minNextAt()
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
		// The stop error of the lowest shard index wins, deterministically.
		for i := range errs {
			if errs[i] != nil {
				return errs[i]
			}
		}
		if err := g.checkEventBudget(); err != nil {
			return err
		}
		if g.OnWindow != nil {
			g.OnWindow(g.windowFence(fence))
		}
		if err := g.exchange(); err != nil {
			return err
		}
		if g.Check != nil {
			if at, ok := g.minNextAt(); ok {
				if err := g.Check(at); err != nil {
					return err
				}
			}
		}
	}
}

// exchange moves cross-shard events from outboxes into their destination
// heaps in shard order; the (lp, seq) stamps injected here fix the merge
// order independent of flush order. A causality panic from inject
// (an event landing in a destination shard's past — a lookahead bound
// violation) is captured as a *PanicError so the run ends like any other
// failed run: processes unwound, flight recorder dumpable, no panic
// escaping to the host program. Engine.inject itself still panics, so
// direct misuse keeps its loud failure mode.
func (g *ShardGroup) exchange() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Proc: "shard-exchange", Value: r}
		}
	}()
	for _, e := range g.engines {
		for i := range e.outbox {
			re := e.outbox[i]
			e.outbox[i] = remoteEvent{}
			re.dst.inject(re.at, re.cb, re.lp, re.seq)
		}
		e.outbox = e.outbox[:0]
	}
	return nil
}

// runWindow advances every active shard to the fence, on up to g.workers
// concurrent workers. Each errs slot is owned by one shard, so the error
// collection is as deterministic as the shards themselves.
func (g *ShardGroup) runWindow(active []*Engine, fence Time, errs []error) {
	if w := min(g.workers, len(active)); w > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(active) {
						return
					}
					e := active[i]
					errs[e.lp] = e.runUntil(fence)
				}
			}()
		}
		wg.Wait()
		return
	}
	for _, e := range active {
		errs[e.lp] = e.runUntil(fence)
	}
}

// exactThreshold is the remaining-budget distance below which shards start
// recording canonical stamps for exact MaxEvents attribution. It must be at
// least a few times the shard count so the coarse mode's per-shard window
// caps stay >= 1.
func (g *ShardGroup) exactThreshold() int64 {
	t := int64(4 * len(g.engines))
	if t < 4096 {
		t = 4096
	}
	return t
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
				e.winStamps = []Time{}
			} else {
				e.winStamps = e.winStamps[:0]
			}
		} else {
			// remaining > exactThreshold >= 4*shards keeps this cap >= 2.
			e.winCap = uint64(remaining / int64(2*len(g.engines)))
			e.winStamps = nil
		}
	}
}

// checkEventBudget ends the run once the shards' combined dispatch count
// reaches MaxEvents, attributing the *LimitError to the canonical
// (at, depth, lp, seq)-least event that exhausted the budget — the same
// event a serial engine over the merged schedule would have stopped at —
// so the error bytes match at every worker count. The error names only the
// event's time, and the r-th event in that order happens at the r-th
// smallest dispatch time, so the shards record times alone.
func (g *ShardGroup) checkEventBudget() error {
	if g.MaxEvents == 0 {
		return nil
	}
	total := g.Events()
	if total < g.MaxEvents {
		return nil
	}
	// The budget can only be crossed with stamp recording armed (far from
	// the cap the window caps keep the total strictly below it), so every
	// dispatch of the crossing window is stamped. The budget ran out at the
	// r-th smallest stamp, where r is the pre-window remainder.
	var windowEvents int64
	for _, e := range g.engines {
		windowEvents += int64(e.winCount)
	}
	r := int64(g.MaxEvents) - (int64(total) - windowEvents)
	var stamps []Time
	for _, e := range g.engines {
		stamps = append(stamps, e.winStamps...)
	}
	slices.Sort(stamps)
	at := g.MaxNow()
	if r >= 1 && int64(len(stamps)) >= r {
		at = stamps[r-1]
	}
	return &LimitError{Resource: "events", Limit: int64(g.MaxEvents), At: at}
}

// windowFence is the fence OnWindow observers may trust: every event
// strictly before it has been dispatched on every shard, and every future
// record will be stamped at or after it. Normally that is the window fence
// itself; when an event-budget cap paused a shard mid-window, it is pulled
// back to the earliest still-pending event.
func (g *ShardGroup) windowFence(fence Time) Time {
	if g.MaxEvents == 0 {
		return fence
	}
	for _, e := range g.engines {
		if at, ok := e.nextAt(); ok && at < fence {
			fence = at
		}
	}
	return fence
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
