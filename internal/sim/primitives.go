package sim

import "impacc/internal/telemetry"

// Synchronization primitives for simulation processes. All of them follow
// the engine's determinism rule: waiters are woken in FIFO order via
// scheduled events, never by running inline.

// Event is a one-shot broadcast: processes block in Wait until Fire, after
// which Wait returns immediately forever.
//
// The first waiter and the first OnFire callback live inline; only a second
// of either allocates the overflow record, so an event embedded in the
// object that owns it (a message command, a stream operation) costs that
// owner no extra allocation. An event names no engine: each waiter resumes
// on its own. Keep the struct within 64 bytes: owners embed it by the
// hundred thousand.
type Event struct {
	why   string
	first *Proc    // first waiter
	cb    Callback // first OnFire callback
	more  *eventMore
	fired bool
}

// eventMore holds an event's second and later waiters and callbacks, in
// arrival order after the inline ones.
type eventMore struct {
	waiters []*Proc
	cbs     []Callback
}

// NewEvent returns an unfired event. why labels deadlock diagnostics.
func (e *Engine) NewEvent(why string) *Event {
	ev := &Event{}
	e.InitEvent(ev, why)
	return ev
}

// InitEvent resets ev, typically a field of a larger struct, to an unfired
// event labelled why — NewEvent for an event its owner embeds.
func (e *Engine) InitEvent(ev *Event, why string) {
	*ev = Event{why: why}
}

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event and wakes all waiters in arrival order, then runs the
// OnFire callbacks in registration order. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	more := ev.more
	ev.more = nil
	if p := ev.first; p != nil {
		ev.first = nil
		p.eng.wake(p, p.eng.now)
	}
	if more != nil {
		for _, p := range more.waiters {
			p.eng.wake(p, p.eng.now)
		}
	}
	if cb := ev.cb; cb != nil {
		ev.cb = nil
		cb.Call()
	}
	if more != nil {
		for _, cb := range more.cbs {
			cb.Call()
		}
	}
}

// overflow returns the event's overflow record, allocating it on first use.
func (ev *Event) overflow() *eventMore {
	if ev.more == nil {
		ev.more = &eventMore{}
	}
	return ev.more
}

// OnFire registers cb to run when the event fires (immediately if it
// already has). Callbacks run in engine context before waiters resume.
func (ev *Event) OnFire(cb Callback) {
	switch {
	case ev.fired:
		cb.Call()
	case ev.cb == nil:
		ev.cb = cb
	default:
		m := ev.overflow()
		m.cbs = append(m.cbs, cb)
	}
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	if ev.first == nil {
		ev.first = p
	} else {
		m := ev.overflow()
		m.waiters = append(m.waiters, p)
	}
	p.park("event:", ev.why)
}

// FIFO is a slice queue with a head index, so popping the oldest element
// costs O(1) instead of copying the backlog down. It has no locks: like
// everything on an engine, it is touched by one goroutine at a time. The
// zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v. When the backing array is full and at least half of it is
// already consumed, the live tail slides to the front first, so a queue that
// never fully drains still runs in bounded memory.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	var zero T
	v, q.items[q.head] = q.items[q.head], zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Cond is a reusable wait list: Wait blocks until a later WakeOne.
// Unlike sync.Cond there is no lock: the engine's single-runner rule makes
// check-then-wait atomic.
type Cond struct {
	eng     *Engine
	waiters FIFO[*Proc]
	why     string
}

// NewCond returns an empty condition.
func (e *Engine) NewCond(why string) *Cond { return &Cond{eng: e, why: why} }

// Wait blocks p until woken.
func (c *Cond) Wait(p *Proc) {
	c.waiters.Push(p)
	p.park("cond:", c.why)
}

// WakeOne wakes the longest-waiting process, if any, and reports whether one
// was woken.
func (c *Cond) WakeOne() bool {
	p, ok := c.waiters.Pop()
	if ok {
		c.eng.wake(p, c.eng.now)
	}
	return ok
}

// Semaphore is a counting semaphore with FIFO acquisition order.
type Semaphore struct {
	eng     *Engine
	avail   int
	waiters FIFO[*Proc]
	why     string
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(n int, why string) *Semaphore {
	return &Semaphore{eng: e, avail: n, why: why}
}

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 && s.waiters.Len() == 0 {
		s.avail--
		return
	}
	s.waiters.Push(p)
	p.park("sem:", s.why)
	// The releaser transferred a permit directly to us.
}

// Release returns one permit, waking the longest waiter if any.
func (s *Semaphore) Release() {
	if p, ok := s.waiters.Pop(); ok {
		s.eng.wake(p, s.eng.now)
		return
	}
	s.avail++
}

// FIFOResource models a serialized service center such as a PCIe link, a
// QPI hop, a NIC, or a memory channel: requests occupy it back to back in
// arrival order. It tracks the time the resource becomes free rather than
// running its own process, which keeps large topologies cheap.
type FIFOResource struct {
	eng    *Engine
	freeAt Time
	// use holds the occupancy totals (busy, wait, uses, peak backlog) and
	// the virtual time each last changed, as plain fields the engine's
	// registry reads only when snapshotted or merged.
	use telemetry.Resource
}

// NewFIFOResource returns an idle resource. Its occupancy (queue-wait and
// busy time) reports into the engine's metrics registry under its name.
func (e *Engine) NewFIFOResource(name string) *FIFOResource {
	r := &FIFOResource{eng: e, use: telemetry.Resource{Name: name}}
	if e.Metrics != nil {
		e.Metrics.AddResource(&r.use)
	}
	return r
}

// observe records one occupation that waited from arrival to start.
func (r *FIFOResource) observe(arrival, start Time, occupy Dur) {
	r.use.Observe(int64(r.eng.now), int64(start-arrival), int64(occupy))
}

// BusyTime reports the total occupied time, for utilization reports.
func (r *FIFOResource) BusyTime() Dur { return Dur(r.use.BusyNs) }

// Use occupies the resource for occupy time starting when it becomes free,
// then keeps the caller blocked for a further tail (latency that does not
// occupy the resource, e.g. propagation delay). It returns the time the
// occupation started.
func (r *FIFOResource) Use(p *Proc, occupy, tail Dur) Time {
	if occupy < 0 {
		occupy = 0
	}
	if tail < 0 {
		tail = 0
	}
	start := r.eng.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + Time(occupy)
	r.observe(r.eng.now, start, occupy)
	p.SleepUntil(r.freeAt + Time(tail))
	return start
}

// UseAsync occupies the resource without blocking any process and returns
// the completion time. It is used by device copy engines whose completion is
// signalled through stream events rather than a blocked caller.
func (r *FIFOResource) UseAsync(occupy Dur) (start, end Time) {
	if occupy < 0 {
		occupy = 0
	}
	start = r.eng.now
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + Time(occupy)
	r.observe(r.eng.now, start, occupy)
	return start, r.freeAt
}

// UseAsyncFrom occupies the resource like UseAsync, but for a request whose
// leading edge reached it at earliest (which may precede the current time —
// a network transfer's first byte arrives one occupancy ahead of its last).
// The occupation starts at max(earliest, free) and the wait observed by the
// monitor is measured from earliest.
func (r *FIFOResource) UseAsyncFrom(earliest Time, occupy Dur) (start, end Time) {
	if occupy < 0 {
		occupy = 0
	}
	start = earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + Time(occupy)
	r.observe(earliest, start, occupy)
	return start, r.freeAt
}

// CoUseAsync occupies all given resources for the same interval, starting
// when every one of them is free. It models transfers that hold several
// links at once (e.g. a peer-to-peer PCIe copy holding both device links).
// At least one resource must be given.
func CoUseAsync(occupy Dur, rs ...*FIFOResource) (start, end Time) {
	if occupy < 0 {
		occupy = 0
	}
	start = rs[0].eng.now
	for _, r := range rs {
		if r.freeAt > start {
			start = r.freeAt
		}
	}
	end = start + Time(occupy)
	for _, r := range rs {
		r.freeAt = end
		r.observe(r.eng.now, start, occupy)
	}
	return start, end
}
