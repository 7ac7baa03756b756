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
// independently and complete in any order.
type Stream struct {
	ID  int
	Ctx *Context

	// head is the oldest queued entry, linked through Entry.next; tail is
	// the newest entry enqueued, which stays in place after it runs so
	// Sync can tell whether the stream has drained.
	head, tail *Entry
	cond       *sim.Cond
	closed     bool
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
type Runner interface {
	Run(s *Stream, p *sim.Proc)
	// Why labels the operation's completion event on stream s in
	// deadlock diagnostics, by convention "op:<name>". It is called only
	// when a process waits on the operation before it finishes.
	Why(s *Stream) string
	entry() *Entry
}

// Entry is the queue header a Runner embeds. The stream links entries
// through it and marks an entry finished by clearing run. The completion
// event is made only when a process waits on an unfinished entry (Sync, or
// a stream waiting on another stream's tail), so an entry nobody waits on
// never owns one.
type Entry struct {
	next *Entry
	run  Runner     // the record itself; nil once finished
	done *sim.Event // nil until a process waits on the entry
}

func (e *Entry) entry() *Entry { return e } //impacc:allow-unused Enqueue calls it through Runner on the records that embed Entry

// NewStream creates an activity queue on the context's device and starts
// its simulation process. Streams must be Closed when the owning task
// finishes, or the engine reports them as deadlocked processes.
func (c *Context) NewStream(id int) *Stream {
	eng := c.Dev.rt.Eng
	s := &Stream{ID: id, Ctx: c, cond: eng.NewCond(fmt.Sprintf("queue:stream%d", id))}
	if reg := eng.Metrics; reg != nil {
		s.kernelHist = reg.Histogram(KernelDurationNs, "kernel durations by activity queue",
			"node", c.Dev.rt.Spec.Name, "dev", strconv.Itoa(c.Dev.Index), "stream", strconv.Itoa(id))
	}
	eng.Spawn(fmt.Sprintf("%s/dev%d/q%d", c.Dev.rt.Spec.Name, c.Dev.Index, id), s.loop)
	return s
}

func (s *Stream) loop(p *sim.Proc) {
	for {
		for s.head == nil {
			if s.closed {
				return
			}
			s.cond.Wait(p)
		}
		e := s.head
		s.head, e.next = e.next, nil
		e.run.Run(s, p)
		e.run = nil
		if ev := e.done; ev != nil {
			e.done = nil
			ev.Fire()
			s.spare = ev
		}
	}
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
	if s.head == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
	s.cond.WakeOne()
}

// wait blocks p until entry e of this stream has finished; a nil entry
// has. The first process to wait gives e its completion event, labelled
// by e's Why.
func (s *Stream) wait(p *sim.Proc, e *Entry) {
	if e == nil || e.run == nil {
		return
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
	ev.Wait(p)
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

func (o *copyOp) Run(s *Stream, p *sim.Proc) {
	if _, err := s.Ctx.transferLane(p, s.ID, o.id, o.dst, o.src, o.n); err != nil {
		panic(fmt.Sprintf("stream copy: %v", err))
	}
}

// EnqueueCopy schedules an asynchronous memory copy (cuMemcpyAsync /
// clEnqueue{Read,Write}Buffer with CL_NON_BLOCKING).
func (s *Stream) EnqueueCopy(dst, src xmem.Addr, n int64) {
	s.Enqueue(&copyOp{dst: dst, src: src, n: n, id: s.chainID()})
}

// kernelOp is a queued kernel launch.
type kernelOp struct {
	Entry
	k  KernelSpec
	id uint64 // trace ID, 0 when tracing is off
}

func (o *kernelOp) Why(s *Stream) string {
	if s.kernel != o.k.Name || s.kernelWhy == "" {
		s.kernel, s.kernelWhy = o.k.Name, "op:kernel:"+o.k.Name
	}
	return s.kernelWhy
}

func (o *kernelOp) Run(s *Stream, p *sim.Proc) {
	k := &o.k
	dur := Duration(s.Ctx.Dev.Spec, *k)
	start := s.Ctx.Dev.compute.Use(p, dur, 0)
	if k.Body != nil {
		k.Body()
	}
	s.Ctx.Stats.KernelCount++
	s.Ctx.Stats.KernelTime += dur
	if s.kernelHist != nil {
		s.kernelHist.Observe(int64(dur))
	}
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 {
		sink.Span(o.id, s.ID, "kernel", k.Name, start, start+sim.Time(dur), 0)
	}
}

// EnqueueKernel schedules a kernel launch. The device compute resource
// serializes kernels from all streams of the device; the kernel's Body (if
// any) executes at completion so data results are real.
func (s *Stream) EnqueueKernel(k KernelSpec) {
	s.Enqueue(&kernelOp{k: k, id: s.chainID()})
}

// Sync blocks p until every operation enqueued so far has completed
// (#pragma acc wait on this queue).
func (s *Stream) Sync(p *sim.Proc) { s.wait(p, s.tail) }

// Close shuts the stream process down after draining queued work. Safe to
// call twice.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.cond.WakeOne()
}

// waitOp is a queued cross-stream dependency: it waits for the entry that
// was src's tail when it was enqueued.
type waitOp struct {
	Entry
	src    *Stream
	target *Entry
	id     uint64 // trace ID, 0 when tracing is off
}

func (o *waitOp) Why(*Stream) string { return "op:wait-event" }

func (o *waitOp) Run(s *Stream, p *sim.Proc) {
	start := p.Now()
	o.src.wait(p, o.target)
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 {
		sink.Span(o.id, s.ID, "accwait", "qwait", start, p.Now(), 0)
	}
	//impacc:allow-spanbalance no span exists to balance when tracing is off (sink == nil / id == 0); with tracing on, the record above is unconditional
}

// EnqueueWaitStream makes this stream wait for src's current tail before
// running later operations (cuEventRecord on src, cuStreamWaitEvent here):
// the cross-stream dependency behind "#pragma acc wait(q) async(r)". It
// records the cross-stream "event" edge and an accwait span over the actual
// wait interval for the causal trace.
func (s *Stream) EnqueueWaitStream(src *Stream) {
	o := &waitOp{src: src, target: src.tail, id: s.chainID()}
	if sink := s.Ctx.Sink; sink != nil && o.id != 0 && src.traceTail != 0 {
		sink.Edge("event", src.traceTail, o.id, s.Ctx.Dev.rt.Eng.Now())
	}
	s.Enqueue(o)
}
