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

	q      *sim.Queue
	closed bool
	// lastDone is the completion event of the newest operation. It points
	// into that operation's streamOp, which it keeps alive until the next
	// enqueue; idle is the already-fired event of a stream with no
	// operations yet.
	lastDone   *sim.Event
	idle       sim.Event
	kernelHist *telemetry.Histogram
	// tail is the trace ID of the last traced operation enqueued, the
	// source of the next in-order "stream" edge (0 = none yet).
	tail uint64
}

// Runner is the work of one stream operation, run on the stream's process
// when the queue reaches it. An owner that already holds the operation's
// state implements it to enqueue without a closure (EnqueueRunner).
type Runner interface{ Run(p *sim.Proc) }

// runFunc adapts a closure to Runner; a func value is one word, so the
// conversion allocates nothing.
type runFunc func(p *sim.Proc)

func (f runFunc) Run(p *sim.Proc) { f(p) }

// streamOp is one queue entry. It owns its completion event, so enqueueing
// allocates the entry and nothing else.
type streamOp struct {
	run  Runner // nil for poison (close)
	done sim.Event
}

// NewStream creates an activity queue on the context's device and starts
// its simulation process. Streams must be Closed when the owning task
// finishes, or the engine reports them as deadlocked processes.
func (c *Context) NewStream(id int) *Stream {
	eng := c.Dev.rt.Eng
	s := &Stream{ID: id, Ctx: c, q: eng.NewQueue(fmt.Sprintf("stream%d", id))}
	if reg := eng.Metrics; reg != nil {
		s.kernelHist = reg.Histogram(KernelDurationNs, "kernel durations by activity queue",
			"node", c.Dev.rt.Spec.Name, "dev", strconv.Itoa(c.Dev.Index), "stream", strconv.Itoa(id))
	}
	eng.InitEvent(&s.idle, "stream-init")
	s.idle.Fire()
	s.lastDone = &s.idle
	eng.Spawn(fmt.Sprintf("%s/dev%d/q%d", c.Dev.rt.Spec.Name, c.Dev.Index, id), s.loop)
	return s
}

func (s *Stream) loop(p *sim.Proc) {
	for {
		op := s.q.Get(p).(*streamOp)
		if op.run == nil {
			op.done.Fire()
			return
		}
		op.run.Run(p)
		// The finished op may live on as the stream's lastDone; drop its
		// closures so they do not keep what they captured alive too.
		op.run = nil
		op.done.Fire()
	}
}

// enqueue adds an operation and returns its completion event, labelled why
// ("op:<name>") in deadlock diagnostics.
func (s *Stream) enqueue(why string, run Runner) *sim.Event {
	if s.closed {
		panic("device: enqueue on closed stream")
	}
	op := &streamOp{run: run}
	s.Ctx.Dev.rt.Eng.InitEvent(&op.done, why)
	s.q.Put(op)
	s.lastDone = &op.done
	return &op.done
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
	if s.tail != 0 {
		sink.Edge("stream", s.tail, id, s.Ctx.Dev.rt.Eng.Now())
	}
	s.tail = id
	return id
}

// EnqueueCopy schedules an asynchronous memory copy (cuMemcpyAsync /
// clEnqueue{Read,Write}Buffer with CL_NON_BLOCKING) and returns its
// completion event.
func (s *Stream) EnqueueCopy(dst, src xmem.Addr, n int64) *sim.Event {
	id := s.chainID()
	return s.enqueue("op:copy", runFunc(func(p *sim.Proc) {
		if _, err := s.Ctx.transferLane(p, s.ID, id, dst, src, n); err != nil {
			panic(fmt.Sprintf("stream copy: %v", err))
		}
	}))
}

// EnqueueKernel schedules a kernel launch. The device compute resource
// serializes kernels from all streams of the device; the kernel's Body (if
// any) executes at completion so data results are real.
func (s *Stream) EnqueueKernel(k KernelSpec) *sim.Event {
	id := s.chainID()
	return s.enqueue("op:kernel:"+k.Name, runFunc(func(p *sim.Proc) {
		dur := Duration(s.Ctx.Dev.Spec, k)
		start := s.Ctx.Dev.compute.Use(p, dur, 0)
		if k.Body != nil {
			k.Body()
		}
		s.Ctx.Stats.KernelCount++
		s.Ctx.Stats.KernelTime += dur
		if s.kernelHist != nil {
			s.kernelHist.Observe(int64(dur))
		}
		if sink := s.Ctx.Sink; sink != nil && id != 0 {
			sink.Span(id, s.ID, "kernel", k.Name, start, start+sim.Time(dur), 0)
		}
	}))
}

// EnqueueFunc schedules an arbitrary operation on the stream. why labels
// its completion event in deadlock diagnostics; by convention it is
// "op:<name>", spelled out by the caller so enqueueing builds no string.
func (s *Stream) EnqueueFunc(why string, fn func(p *sim.Proc)) *sim.Event {
	return s.enqueue(why, runFunc(fn))
}

// EnqueueRunner is EnqueueFunc for an owner that implements Runner itself.
// The IMPACC unified activity queue (paper §3.6) uses it to place MPI
// non-blocking communication calls in the same in-order queue as kernels
// and copies.
func (s *Stream) EnqueueRunner(why string, r Runner) *sim.Event {
	return s.enqueue(why, r)
}

// Sync blocks p until every operation enqueued so far has completed
// (#pragma acc wait on this queue).
func (s *Stream) Sync(p *sim.Proc) {
	s.lastDone.Wait(p)
}

// Close shuts the stream process down after draining queued work. Safe to
// call twice.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	op := &streamOp{}
	s.Ctx.Dev.rt.Eng.InitEvent(&op.done, "stream-close")
	s.q.Put(op)
}

// EnqueueWaitStream makes this stream wait for src's current tail before
// running later operations (cuEventRecord on src, cuStreamWaitEvent here):
// the cross-stream dependency behind "#pragma acc wait(q) async(r)". It
// records the cross-stream "event" edge and an accwait span over the actual
// wait interval for the causal trace.
func (s *Stream) EnqueueWaitStream(src *Stream) *sim.Event {
	ev := src.Done()
	sink := s.Ctx.Sink
	id := s.chainID()
	if sink != nil && id != 0 && src.tail != 0 {
		sink.Edge("event", src.tail, id, s.Ctx.Dev.rt.Eng.Now())
	}
	return s.enqueue("op:wait-event", runFunc(func(p *sim.Proc) {
		start := p.Now()
		ev.Wait(p)
		if sink != nil && id != 0 {
			sink.Span(id, s.ID, "accwait", "qwait", start, p.Now(), 0)
		}
		//impacc:allow-spanbalance no span exists to balance when tracing is off (sink == nil / id == 0); with tracing on, the record above is unconditional
	}))
}

// Done returns the completion event of the last operation enqueued so far
// (cuEventRecord at the current tail).
func (s *Stream) Done() *sim.Event { return s.lastDone }
