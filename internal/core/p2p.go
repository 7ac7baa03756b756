package core

import (
	"strings"

	"impacc/internal/device"
	"impacc/internal/mpi"
	"impacc/internal/msg"
	"impacc/internal/sim"
	"impacc/internal/xmem"
)

// Wildcards re-exported for applications.
const (
	AnySource = msg.AnySource
	AnyTag    = msg.AnyTag
)

// Opt modifies an MPI call, mirroring the IMPACC directive clauses of §3.5:
//
//	#pragma acc mpi sendbuf(device, readonly) async(1)
//
// An Opt is a small value, so passing options allocates nothing.
type Opt struct {
	device, readonly, async bool
	q                       int
}

type callOpts struct {
	device   bool
	readonly bool
	async    int
	comm     int
}

// OnDevice marks the buffer argument as host data whose *device copy*
// participates in the transfer (the sendbuf(device)/recvbuf(device)
// clause): the runtime translates the address through the present table.
func OnDevice() Opt { return Opt{device: true} }

// ReadOnly asserts the buffer is read-only around the call (the readonly
// attribute), enabling node heap aliasing (§3.8).
func ReadOnly() Opt { return Opt{readonly: true} }

// Async enqueues the MPI call on OpenACC activity queue q — the unified
// activity queue of §3.6. Requires IMPACC mode.
func Async(q int) Opt { return Opt{async: true, q: q} }

// opts resolves an MPI call's clauses on communicator c, whose context id
// scopes the call's messages.
func (c *Comm) opts(opts []Opt) callOpts {
	o := callOpts{async: -1, comm: c.id}
	for _, f := range opts {
		o.device = o.device || f.device
		o.readonly = o.readonly || f.readonly
		if f.async {
			o.async = f.q
		}
	}
	return o
}

// Request is a non-blocking communication handle (MPI_Request). It owns its
// message command, whose Done event is the request's completion, so Wait
// and Status read the matched envelope from the request itself.
type Request struct {
	cmd msg.Cmd
	// uq names the operation of a request placed on a unified activity
	// queue, whose command is posted when the queue reaches it; uqNone
	// for a request posted at once. It sits in the command's tail
	// padding, which keeps a uqOp in the 256-byte size class.
	uq uqKind
}

// uqKind names one of the four point-to-point operations.
type uqKind uint8

const (
	uqNone uqKind = iota
	uqSend
	uqRecv
	uqIsend
	uqIrecv
)

// uqName describes one point-to-point operation: on a unified activity
// queue, its stream operation's label and its command's completion label;
// its latency op; whether it sends; and whether it blocks the host. The
// labels are spelled out so posting or enqueueing builds no string.
type uqName struct {
	why, done, op  string
	send, blocking bool
}

var uqNames = [...]uqName{
	uqSend:  {"op:mpi_send", "mpi_send-done", "send", true, true},
	uqRecv:  {"op:mpi_recv", "mpi_recv-done", "recv", false, true},
	uqIsend: {"op:mpi_isend", "mpi_isend-done", "isend", true, false},
	uqIrecv: {"op:mpi_irecv", "mpi_irecv-done", "irecv", false, false},
}

// uqOp is one MPI operation placed on a unified activity queue: request,
// stream entry and completion callback in one allocation. Its command is
// filled in at enqueue time and posted when the queue reaches the
// operation (Run); the command's Done fires at transfer completion and
// calls the op itself (Call).
type uqOp struct {
	Request
	device.Entry
	t     *Task
	q     int
	start sim.Time // when the queue reached the operation
	next  *uqOp    // the next operation in flight on the same queue
}

// uqChain is the MPI operations in flight on one unified activity queue,
// linked through uqOp.next in enqueue order.
type uqChain struct{ head, tail *uqOp }

// resolveBuf applies the device clause and computes the byte count.
func (t *Task) resolveBuf(addr xmem.Addr, count int, dt mpi.Datatype, o callOpts) (xmem.Addr, int64) {
	if count < 0 {
		t.failf("negative count %d", count)
	}
	buf := addr
	if o.device {
		if t.rt.Cfg.Mode == Legacy {
			t.failf("sendbuf/recvbuf(device) requires IMPACC (legacy MPI sees host buffers only)")
		}
		buf = t.DevicePtr(addr)
	}
	return buf, int64(count) * dt.Size()
}

// initCmd fills in a message command whose Done is labelled why. Ranks
// are world ranks; o.comm scopes the matching context.
func (t *Task) initCmd(cmd *msg.Cmd, why string, isSend bool, buf xmem.Addr, bytes int64, src, dst, tag int, o callOpts) {
	*cmd = msg.Cmd{
		IsSend: isSend, Src: src, Dst: dst, Tag: tag, Comm: o.comm,
		Addr: buf, Bytes: bytes, Ep: t.ep, ReadOnly: o.readonly,
	}
	t.eng().InitEvent(&cmd.Done, why)
}

// post hands a filled-in command to the node's hub on process p.
func (t *Task) post(p *sim.Proc, cmd *msg.Cmd) {
	t.traceCmd(p, cmd)
	hub := t.node.hub
	switch {
	case cmd.IsSend && t.sameNode(cmd.Dst):
		hub.PostIntra(p, cmd)
	case cmd.IsSend:
		hub.PostNetSend(p, cmd, t.rt.nodes[t.rt.placements[cmd.Dst].Node].hub)
	case cmd.Src != AnySource && t.sameNode(cmd.Src):
		hub.PostIntra(p, cmd)
	default:
		// Remote or wildcard source: the hub's unified matcher covers
		// both arrived internode messages and local sends.
		hub.PostNetRecv(p, cmd)
	}
}

// postSend initiates the send on process p and returns its command.
func (t *Task) postSend(p *sim.Proc, buf xmem.Addr, bytes int64, dst, tag int, o callOpts) *msg.Cmd {
	cmd := new(msg.Cmd)
	t.initCmd(cmd, t.cmdWhy, true, buf, bytes, t.rank, dst, tag, o)
	t.post(p, cmd)
	return cmd
}

// postRecv posts the receive on process p.
func (t *Task) postRecv(p *sim.Proc, buf xmem.Addr, bytes int64, src, tag int, o callOpts) *msg.Cmd {
	cmd := new(msg.Cmd)
	t.initCmd(cmd, t.cmdWhy, false, buf, bytes, src, t.rank, tag, o)
	t.post(p, cmd)
	return cmd
}

func (t *Task) checkCmd(cmd *msg.Cmd) {
	if cmd.Err != nil {
		t.fail(cmd.Err)
	}
}

func (t *Task) checkTag(tag int) {
	if tag < 0 && tag != AnyTag {
		t.failf("application tags must be non-negative (got %d)", tag)
	}
}

// Send is MPI_Send on MPI_COMM_WORLD: blocking standard-mode send of count
// elements of dt at addr to rank dst. With Async(q), the call is placed on
// activity queue q and the host continues immediately (unified activity
// queue, §3.6).
func (t *Task) Send(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) {
	t.checkRank(dst)
	t.world.p2p(uqSend, addr, count, dt, dst, tag, opts)
}

// Recv is MPI_Recv on MPI_COMM_WORLD. src may be AnySource, tag AnyTag.
func (t *Task) Recv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) {
	if src != AnySource {
		t.checkRank(src)
	}
	t.world.p2p(uqRecv, addr, count, dt, src, tag, opts)
}

// Isend is MPI_Isend on MPI_COMM_WORLD: the send is initiated and a request
// returned. With Async(q) the operation instead joins activity queue q and
// the returned request completes when the queue reaches and finishes it.
func (t *Task) Isend(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) *Request {
	t.checkRank(dst)
	return t.world.p2p(uqIsend, addr, count, dt, dst, tag, opts)
}

// Irecv is MPI_Irecv on MPI_COMM_WORLD.
func (t *Task) Irecv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) *Request {
	if src != AnySource {
		t.checkRank(src)
	}
	return t.world.p2p(uqIrecv, addr, count, dt, src, tag, opts)
}

// p2p is the one path of the four point-to-point ops over communicator c.
// peer is a communicator rank, or AnySource for a receive; the entry point
// has checked it. With Async(q) the op joins activity queue q. Otherwise
// its command is posted at once: a non-blocking op returns its request, and
// a blocking op waits for it, accounts it under its own name and returns
// nil.
func (c *Comm) p2p(k uqKind, addr xmem.Addr, count int, dt mpi.Datatype, peer, tag int, opts []Opt) *Request {
	t, kind := c.t, &uqNames[k]
	o := c.opts(opts)
	t.checkTag(tag)
	if peer != AnySource {
		peer = c.ranks[peer]
	}
	src, dst := t.rank, peer
	if !kind.send {
		src, dst = peer, t.rank
	}
	buf, bytes := t.resolveBuf(addr, count, dt, o)
	if o.async >= 0 {
		return t.enqueueUnifiedMPI(k, buf, bytes, src, dst, tag, o)
	}
	r := &Request{}
	cmd := &r.cmd
	t.initCmd(cmd, t.cmdWhy, kind.send, buf, bytes, src, dst, tag, o)
	start := t.proc.Now()
	t.post(t.proc, cmd)
	if !kind.blocking {
		t.mpiTime(kind.op, start)
		return r
	}
	cmd.Done.Wait(t.proc)
	peer, bytes = cmdPeer(cmd)
	t.mpiEnd(kind.op, start, -1, peer, bytes, cmd)
	t.checkCmd(cmd)
	return nil
}

// cmdPeer returns the world rank at the other end of a completed command
// and the bytes it moved: the destination and size of a send, the matched
// source and size of a receive.
func cmdPeer(cmd *msg.Cmd) (int, int64) {
	if cmd.IsSend {
		return cmd.Dst, cmd.Bytes
	}
	return cmd.MatchedSrc, cmd.MatchedBytes
}

// Wait is MPI_Wait/MPI_Waitall over the given requests.
func (t *Task) Wait(reqs ...*Request) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		cmd := &r.cmd
		start := t.proc.Now()
		cmd.Done.Wait(t.proc)
		peer, bytes := cmdPeer(cmd)
		t.mpiEnd("wait", start, -1, peer, bytes, cmd)
		t.checkCmd(cmd)
	}
}

// Sendrecv is MPI_Sendrecv: concurrent blocking send and receive.
func (t *Task) Sendrecv(sendAddr xmem.Addr, sendCount int, sdt mpi.Datatype, dst, sendTag int, //impacc:allow-unused reproduces the paper's MPI API (§3)
	recvAddr xmem.Addr, recvCount int, rdt mpi.Datatype, src, recvTag int, opts ...Opt) {
	sr := t.Isend(sendAddr, sendCount, sdt, dst, sendTag, opts...)
	rr := t.Irecv(recvAddr, recvCount, rdt, src, recvTag, opts...)
	t.Wait(sr, rr)
}

// enqueueUnifiedMPI places an MPI operation on activity queue o.async: the
// unified activity queue of §3.6. The operation *initiates* when the queue
// reaches it (so two adjacent non-blocking calls can be in flight together,
// as in Figure 4 (c)); its completion is tracked, and any later kernel,
// data operation, or wait on the same queue first drains outstanding MPI
// completions — the queue's in-order completion guarantee.
func (t *Task) enqueueUnifiedMPI(k uqKind, buf xmem.Addr, bytes int64, src, dst, tag int, o callOpts) *Request {
	if t.rt.Cfg.Mode == Legacy || !t.rt.feats.UnifiedQueue {
		t.failf("async MPI (%s) requires the IMPACC unified activity queue", strings.TrimPrefix(uqNames[k].why, "op:"))
	}
	q := o.async
	op := &uqOp{Request: Request{uq: k}, t: t, q: q}
	t.initCmd(&op.cmd, uqNames[k].done, uqNames[k].send, buf, bytes, src, dst, tag, o)
	t.env.Stream(q).Enqueue(op)
	c := t.uqPending[q]
	if c.head == nil {
		c.head = op
	} else {
		c.tail.next = op
	}
	c.tail = op
	t.uqPending[q] = c
	return &op.Request
}

// Why labels the op's stream entry in deadlock diagnostics.
func (op *uqOp) Why(*device.Stream) string { return uqNames[op.uq].why }

// Run runs when the queue reaches the operation: it posts the command and
// arms the op as the command's completion callback.
func (op *uqOp) Run(_ *device.Stream, p *sim.Proc) {
	t, cmd := op.t, &op.cmd
	op.start = p.Now()
	t.post(p, cmd)
	if tr := t.rt.Cfg.Trace; tr != nil && cmd.TraceID != 0 {
		// The queued operation observes its own command: its span is
		// recorded on the stream lane under the command's trace ID, so
		// message edges point at the stream activity, not the host.
		tr.claim(t.pl.Node, cmd.TraceID, cmd.TraceID, p.Now())
	}
	cmd.Done.OnFire(op)
}

// Call runs when the command finishes: it records the latency of the
// queued op itself, from when the queue reached it, and its stream-lane
// span.
func (op *uqOp) Call() {
	t, cmd := op.t, &op.cmd
	name := uqNames[op.uq].op
	t.mpiObserve(name, op.start)
	if tr := t.rt.Cfg.Trace; tr != nil && cmd.TraceID != 0 {
		peer, bytes := cmdPeer(cmd)
		tr.record(Span{ID: cmd.TraceID, Rank: t.rank, Node: t.pl.Node,
			Stream: op.q, Kind: "mpi", Name: name, Start: op.start,
			End: t.eng().Now(), Bytes: bytes, Peer: peer})
	}
}

// uqBarrier enqueues a completion barrier for all MPI operations placed on
// queue q so far: the next queued operation starts only after they finish.
func (t *Task) uqBarrier(q int) {
	head := t.uqPending[q].head
	if head == nil {
		return
	}
	t.uqPending[q] = uqChain{}
	t.env.Stream(q).Enqueue(&uqDrain{head: head})
}

// uqDrain is the stream entry of a uqBarrier: it waits, in enqueue order,
// for the chain of MPI operations starting at head.
type uqDrain struct {
	device.Entry
	head *uqOp
}

func (d *uqDrain) Why(*device.Stream) string { return "op:uq-barrier" }

func (d *uqDrain) Run(_ *device.Stream, p *sim.Proc) {
	for op := d.head; op != nil; op = op.next {
		op.cmd.Done.Wait(p)
		if op.cmd.Err != nil {
			panic(&RunError{Rank: op.t.rank, Err: op.cmd.Err})
		}
	}
}

// Status reports which message satisfied a receive (MPI_Status): the world
// rank of the sender, the tag, and the element count actually received.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Status returns the matched-message information of a completed receive
// request; Count is in dt units. Meaningful after Wait/Done.
func (r *Request) Status(dt mpi.Datatype) Status {
	cmd := &r.cmd
	if !cmd.Done.Fired() {
		return Status{Source: AnySource, Tag: AnyTag}
	}
	return Status{
		Source: cmd.MatchedSrc,
		Tag:    cmd.MatchedTag,
		Count:  int(cmd.MatchedBytes / dt.Size()),
	}
}

// RecvStatus is MPI_Recv returning the matched status — the companion of
// wildcard receives.
func (t *Task) RecvStatus(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) Status { //impacc:allow-unused reproduces the paper's MPI API (§3)
	r := t.Irecv(addr, count, dt, src, tag, opts...)
	t.Wait(r)
	return r.Status(dt)
}

// Waitany is MPI_Waitany: block until one of the requests completes and
// return its index. Completed or nil entries are reported immediately.
func (t *Task) Waitany(reqs ...*Request) int { //impacc:allow-unused reproduces the paper's MPI API (§3)
	if len(reqs) == 0 {
		return -1
	}
	var lastWait uint64
	for {
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if r.cmd.Done.Fired() {
				if r.uq == uqNone {
					if tr := t.rt.Cfg.Trace; tr != nil && lastWait != 0 && r.cmd.TraceID != 0 {
						tr.claim(t.pl.Node, r.cmd.TraceID, lastWait, t.proc.Now())
					}
					t.checkCmd(&r.cmd)
				}
				return i
			}
		}
		// Park until any one fires: register a shared wake.
		any := t.eng().NewEvent("waitany")
		for _, r := range reqs {
			if r != nil {
				r.cmd.Done.OnFire(sim.Func(any.Fire))
			}
		}
		start := t.proc.Now()
		any.Wait(t.proc)
		lastWait = t.mpiEnd("wait", start, -1, -1, 0)
	}
}
