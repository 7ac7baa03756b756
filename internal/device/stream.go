package device

import (
	"fmt"
	"strconv"

	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/xmem"
)

// Stream is an in-order device activity queue (an OpenACC async queue / CUDA
// stream / OpenCL command queue, paper §3.6). Operations enqueued on one
// stream complete in order; operations on different streams proceed
// independently and complete in any order. Like the hardware queue it
// models, a stream is not a thread: it runs as a stackless process (see
// sim.Engine.SpawnStepAt) that steps through its entries on the engine.
type Stream struct {
	ID  int
	Ctx *Context

	// head is the oldest queued entry, linked through Entry.next; tail is
	// the newest entry enqueued. enqueued and finished count the entries
	// added and run so far: an entry's ticket is the count that added it,
	// and the entry has finished once finished reaches its ticket, whether
	// or not its record has been reused since.
	head, tail         *Entry
	enqueued, finished uint64
	idle               sim.Idle
	closed             bool
	// cur is the progress of the head entry while it runs.
	cur progress
	// copies, kernels and waits are the stream's finished records of each
	// kind, linked through Entry.next, for its next enqueue of the kind.
	copies, kernels, waits *Entry
	// spare is a fired completion event kept for the next entry a
	// process waits on, so a stream that is synced over and over
	// allocates one event, not one per Sync.
	spare *sim.Event
	// kernel and kernelWhy cache the completion label of the last kernel
	// a process waited on, so syncing on launches of one kernel builds
	// its label once.
	kernel, kernelWhy string
	kernelHist        *telemetry.Histogram
	// traceTail is the trace ID of the last traced operation enqueued,
	// the source of the next in-order "stream" edge (0 = none yet).
	traceTail uint64
}

// Runner is one queued operation: a record that embeds Entry and runs on
// the stream's process when the queue reaches it. Owners outside this
// package (the unified activity queue's MPI operations) implement it too,
// so enqueueing allocates the record and nothing else.
//
// The stream's process is stackless, so Run is resumable: when a park
// point it calls reports that p parked, Run returns true at once, and the
// stream calls it again when p resumes. Run keeps its progress in its
// record, or, for this package's operations, in the stream's cur. Once Run
// returns false the operation has finished; the stream then reads only the
// entry's completion event, before it parks again, so Run may end by
// handing a record its owner recycles back to the owner.
type Runner interface {
	Run(s *Stream, p *sim.Proc) (parked bool)
	// Why labels the operation's completion event on stream s in
	// deadlock diagnostics, by convention "op:<name>". It is called only
	// when a process waits on the operation before it finishes.
	Why(s *Stream) string
	entry() *Entry
}

// Entry is the queue header a Runner embeds. The stream links entries
// through it and counts it finished once it has run. The completion event
// is made only when a process waits on an unfinished entry (Sync, or a
// stream waiting on another stream's tail), so an entry nobody waits on
// never owns one.
type Entry struct {
	next *Entry
	run  Runner     // the record itself
	done *sim.Event // nil until a process waits on the entry
}

func (e *Entry) entry() *Entry { return e } //impacc:allow-unused Enqueue calls it through Runner on the records that embed Entry

// NewStream creates an activity queue on the context's device and starts
// its simulation process. Streams must be Closed when the owning task
// finishes, or the engine reports them as deadlocked processes.
func (c *Context) NewStream(id int) *Stream {
	eng := c.Dev.rt.Eng
	s := &Stream{ID: id, Ctx: c, idle: sim.NewIdle(fmt.Sprintf("queue:stream%d", id)),
		kernelHist: eng.Metrics.Histogram(kernelDurations, c.Dev.rt.Spec.Name, strconv.Itoa(c.Dev.Index), strconv.Itoa(id))}
	eng.SpawnStepAt(eng.Now(), fmt.Sprintf("%s/dev%d/q%d", c.Dev.rt.Spec.Name, c.Dev.Index, id), s.step)
	return s
}

// step is the stream's process: it runs the head entry, then the next, until
// an entry parks or the queue is empty, where it idles until Enqueue or
// Close wakes it. The head stays queued while it runs, and its progress
// stays in cur, so a resume carries on with it. A closed, drained stream
// returns without parking, which finishes the process.
func (s *Stream) step(p *sim.Proc) {
	for {
		e := s.head
		if e == nil {
			if !s.closed {
				s.idle.Wait(p)
			}
			return
		}
		r := e.run
		if r.Run(s, p) {
			return
		}
		s.head, e.next = e.next, nil
		s.cur = progress{}
		s.finished++
		if ev := e.done; ev != nil {
			e.done = nil
			ev.Fire()
			s.spare = ev
		}
		s.recycle(r, e)
	}
}

// recycle puts a finished record of this package, whose entry is e, on
// its stream's free list; only this stream reuses it. A kernel record
// drops its body, so it keeps no kernel Body alive.
func (s *Stream) recycle(r Runner, e *Entry) {
	var free **Entry
	switch o := r.(type) {
	case *copyOp:
		free = &s.copies
	case *kernelOp:
		o.body = nil
		free = &s.kernels
	case *waitOp:
		o.src, o.target = nil, nil
		free = &s.waits
	default:
		return
	}
	e.next, *free = *free, e
}

// reuse takes a record of type T off a free list of its entries, or makes
// one.
func reuse[T any, P interface {
	*T
	Runner
}](free **Entry) P {
	e := *free
	if e == nil {
		return new(T)
	}
	*free, e.next = e.next, nil
	return e.run.(P)
}

// Enqueue adds r to the end of the queue. The IMPACC unified activity
// queue (paper §3.6) uses it to place MPI non-blocking communication calls
// in the same in-order queue as kernels and copies.
func (s *Stream) Enqueue(r Runner) {
	if s.closed {
		panic("device: enqueue on closed stream")
	}
	e := r.entry()
	e.run = r
	s.enqueued++
	if s.head == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
	s.idle.Wake()
}

// wait blocks p until the entry of this stream with the given ticket has
// finished, and reports whether a stackless p parked. An unfinished entry
// is still queued, so e, the record that entry was enqueued as, still
// holds it. The first process to wait gives e its completion event,
// labelled by e's Why.
func (s *Stream) wait(p *sim.Proc, e *Entry, ticket uint64) bool {
	if s.finished >= ticket {
		return false
	}
	ev := e.done
	if ev == nil {
		if ev = s.spare; ev != nil {
			s.spare = nil
		} else {
			ev = new(sim.Event)
		}
		s.Ctx.Dev.rt.Eng.InitEvent(ev, e.run.Why(s))
		e.done = ev
	}
	return ev.Wait(p)
}

// chainID allocates a trace ID for the operation being enqueued and records
// the in-order dependency edge from the stream's previous traced operation.
// Returns 0 when tracing is off.
func (s *Stream) chainID() uint64 {
	sink := s.Ctx.Sink
	if sink == nil {
		return 0
	}
	id := sink.NewID()
	if s.traceTail != 0 {
		sink.Edge("stream", s.traceTail, id, s.Ctx.Dev.rt.Eng.Now())
	}
	s.traceTail = id
	return id
}

// copyOp is a queued memory copy.
type copyOp struct {
	Entry
	dst, src xmem.Addr
	n        int64
	id       uint64 // trace ID, 0 when tracing is off
}

func (o *copyOp) Why(*Stream) string { return "op:copy" }

func (o *copyOp) Run(s *Stream, p *sim.Proc) bool {
	parked, err := s.Ctx.transferLane(p, s.ID, o.id, o.dst, o.src, o.n, &s.cur)
	if err != nil {
		panic(&StreamError{Ctx: s.Ctx, Queue: s.ID, Err: err})
	}
	return parked
}

// StreamError is the panic value of a queued copy that failed. A stream
// process has no caller to return to, so the panic ends the run; the
// runtime that owns Ctx recovers it from the engine's panic and fails the
// context's owner with it.
type StreamError struct {
	Ctx   *Context
	Queue int
	Err   error
}

func (e *StreamError) Error() string { return fmt.Sprintf("queue %d: %v", e.Queue, e.Err) }

func (e *StreamError) Unwrap() error { return e.Err } //impacc:allow-unused errors.Is and errors.As call it through an anonymous interface

// EnqueueCopy schedules an asynchronous memory copy (cuMemcpyAsync /
// clEnqueue{Read,Write}Buffer with CL_NON_BLOCKING).
func (s *Stream) EnqueueCopy(dst, src xmem.Addr, n int64) {
	o := reuse[copyOp](&s.copies)
	o.dst, o.src, o.n, o.id = dst, src, n, s.chainID()
	s.Enqueue(o)
}

// kernelOp is a queued kernel launch. It keeps what running the kernel
// needs: its name, its body and its duration, priced when it is enqueued.
type kernelOp struct {
	Entry
	name string
	body func()
	dur  sim.Dur
	id   uint64 // trace ID, 0 when tracing is off
}

func (o *kernelOp) Why(s *Stream) string {
	if s.kernel != o.name || s.kernelWhy == "" {
		s.kernel, s.kernelWhy = o.name, "op:kernel:"+o.name
	}
	return s.kernelWhy
}

func (o *kernelOp) Run(s *Stream, p *sim.Proc) bool {
	x := &s.cur
	if !x.started {
		x.started = true
		var parked bool
		if x.start, parked = s.Ctx.Dev.compute.Use(p, o.dur, 0); parked {
			return true
		}
	}
	dur, start := o.dur, x.start
	if o.body != nil {
		o.body()
	}
	s.Ctx.Stats.KernelCount++
	s.Ctx.Stats.KernelTime += dur
	s.kernelHist.Observe(int64(dur))
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 {
		sink.Span(o.id, s.ID, "kernel", o.name, start, start+sim.Time(dur), 0)
	}
	return false
}

// EnqueueKernel schedules a kernel launch. The device compute resource
// serializes kernels from all streams of the device; the kernel's Body (if
// any) executes at completion so data results are real.
func (s *Stream) EnqueueKernel(k KernelSpec) {
	o := reuse[kernelOp](&s.kernels)
	o.name, o.body, o.dur, o.id = k.Name, k.Body, Duration(s.Ctx.Dev.Spec, k), s.chainID()
	s.Enqueue(o)
}

// Sync blocks p until every operation enqueued so far has completed
// (#pragma acc wait on this queue).
func (s *Stream) Sync(p *sim.Proc) { s.wait(p, s.tail, s.enqueued) }

// Close shuts the stream process down after draining queued work. Safe to
// call twice.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.idle.Wake()
}

// waitOp is a queued cross-stream dependency: it waits for the entry that
// was src's tail when it was enqueued. It keeps that entry's ticket, since
// the target's record may finish and be reused before the wait runs.
type waitOp struct {
	Entry
	src    *Stream
	target *Entry
	ticket uint64
	id     uint64 // trace ID, 0 when tracing is off
}

func (o *waitOp) Why(*Stream) string { return "op:wait-event" }

func (o *waitOp) Run(s *Stream, p *sim.Proc) bool {
	x := &s.cur
	if !x.started {
		x.started, x.start = true, p.Now()
		if o.src.wait(p, o.target, o.ticket) {
			return true
		}
	}
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 {
		sink.Span(o.id, s.ID, "accwait", "qwait", x.start, p.Now(), 0)
	}
	return false
}

// EnqueueWaitStream makes this stream wait for src's current tail before
// running later operations (cuEventRecord on src, cuStreamWaitEvent here):
// the cross-stream dependency behind "#pragma acc wait(q) async(r)". It
// records the cross-stream "event" edge and an accwait span over the actual
// wait interval for the causal trace.
func (s *Stream) EnqueueWaitStream(src *Stream) {
	o := reuse[waitOp](&s.waits)
	o.src, o.target, o.ticket, o.id = src, src.tail, src.enqueued, s.chainID()
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 && src.traceTail != 0 {
		sink.Edge("event", src.traceTail, o.id, s.Ctx.Dev.rt.Eng.Now())
	}
	s.Enqueue(o)
}
