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

// Request is a non-blocking communication handle (MPI_Request): a small
// value naming a request and the generation it had when it was issued. A
// request posted at once is named by its record; one placed on a unified
// activity queue by its op's slot among its task's queued ops, since the
// op takes a command record only when the queue reaches it. The zero
// Request is MPI_REQUEST_NULL. As in MPI, a request lives until the call
// that completes it: Wait, or the entry Waitany returns, frees it, and
// every handle to it is null from then on, so a second Wait on it returns
// at once. The drain that passes a queued request (ACCWait, or the barrier
// before a later kernel, copy or wait on its queue) completes it too, as
// "#pragma acc wait" does, so a Wait after that is a Wait on
// MPI_REQUEST_NULL.
type Request struct {
	r    *request
	gen  uint32
	slot uint32 // a queued request's slot plus one; 0 for one posted at once
}

// request is a command record: the record behind a request posted at
// once, or a queued op's while the queue runs it. It owns its message
// command, whose Done event is the request's completion and whose Gen is
// the record's generation, so a wait reads the matched envelope from the
// record itself.
type request struct {
	cmd msg.Cmd
}

// handle returns the live handle of r.
func (r *request) handle() Request { return Request{r: r, gen: r.cmd.Gen} }

// live returns the command record a handle names and, for a queued
// request, its op, which takes its record now if the queue has not reached
// it yet; both are nil when the handle is null: the zero Request, or one
// whose request has been freed since. (Only a handle kept across 2^32
// reuses of its record or op could match again.)
func (t *Task) live(h Request) (*request, *uqOp) {
	switch {
	case h.slot != 0:
		i := h.slot - 1
		if op := &t.uqSlabs[i/uqSlab][i%uqSlab]; op.gen == h.gen {
			return op.record(), op
		}
	case h.r != nil && h.r.cmd.Gen == h.gen:
		return h.r, nil
	}
	return nil, nil
}

// newRequest takes a command record off the task's free list, or makes
// one.
func (t *Task) newRequest() *request {
	n := len(t.reqFree)
	if n == 0 {
		return new(request)
	}
	r := t.reqFree[n-1]
	t.reqFree = t.reqFree[:n-1]
	return r
}

// freeRequest frees a completed command record: its generation moves on,
// which nulls every handle to it and disarms its receive deadline, and it
// returns to the task's free list. A record whose command failed is never
// freed: checkCmd fails the task first.
func (t *Task) freeRequest(r *request) {
	r.cmd.Gen++
	t.reqFree = append(t.reqFree, r)
}

// release ends a request completed by a Wait or Waitany. One posted at
// once is freed. A queued op's generation moves on, which nulls its
// handles, and it keeps its record until the drain that passes it frees
// both.
func (t *Task) release(r *request, op *uqOp) {
	if op != nil {
		op.gen++
		return
	}
	t.freeRequest(r)
}

// uqKind names one of the four point-to-point operations.
type uqKind uint8

const (
	uqSend uqKind = iota
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

// uqOp is one MPI operation placed on a unified activity queue: the call,
// its stream entry and its completion callback in one record, which its
// task makes in slabs and recycles. The op takes a command record off its
// task's free list and fills it in when the queue reaches it (Run), or
// earlier if a wait needs it; the command's Done fires at transfer
// completion and calls the op itself (Call), and the drain that passes the
// op frees the op and its record (uqDrain.Run). Until the queue reaches
// it, an op is only the call, so a host that runs far ahead of its queue
// holds 104 bytes per queued call. Ranks, the communicator id and the
// queue are C ints, as in the MPI and OpenACC APIs.
type uqOp struct {
	device.Entry
	t     *Task
	r     *request // the command record; nil until the op needs one
	next  *uqOp    // the next op in flight on the same queue, or free
	buf   xmem.Addr
	bytes int64
	tag   int
	// peer is the world rank at the other end (AnySource for a wildcard
	// receive), comm the communicator's context id and q the queue.
	peer, comm, q int32
	gen, slot     uint32 // slot is one-based: 0 names no op
	uq            uqKind
	readonly      bool
}

// uqSlab is how many ops a task makes at once: 17 ops of 104 bytes fill
// a 1792-byte size class.
const uqSlab = 17

// newUQOp takes an op off the task's free list, first filling the list
// from a new slab when it is empty.
func (t *Task) newUQOp() *uqOp {
	if t.uqFree == nil {
		slab := new([uqSlab]uqOp)
		base := uint32(len(t.uqSlabs) * uqSlab)
		t.uqSlabs = append(t.uqSlabs, slab)
		for i := uqSlab - 1; i >= 0; i-- {
			op := &slab[i]
			op.t, op.slot, op.next = t, base+uint32(i)+1, t.uqFree
			t.uqFree = op
		}
	}
	op := t.uqFree
	t.uqFree, op.next = op.next, nil
	return op
}

// record returns the op's command record, first taking one off the task's
// free list and filling it in if the op has none.
func (op *uqOp) record() *request {
	if op.r == nil {
		t, kind := op.t, &uqNames[op.uq]
		src, dst := t.rank, int(op.peer)
		if !kind.send {
			src, dst = dst, src
		}
		op.r = t.newRequest()
		t.initCmd(&op.r.cmd, kind.done, kind.send, op.buf, op.bytes, src, dst, op.tag,
			callOpts{readonly: op.readonly, comm: int(op.comm)})
	}
	return op.r
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

// initCmd fills in a message command whose Done is labelled why, keeping
// its reuse generation. Ranks are world ranks; o.comm scopes the matching
// context.
func (t *Task) initCmd(cmd *msg.Cmd, why string, isSend bool, buf xmem.Addr, bytes int64, src, dst, tag int, o callOpts) {
	*cmd = msg.Cmd{
		IsSend: isSend, Src: src, Dst: dst, Tag: tag, Comm: o.comm,
		Addr: buf, Bytes: bytes, Ep: t.ctx, ReadOnly: o.readonly, Gen: cmd.Gen,
	}
	t.eng().InitEvent(&cmd.Done, why)
}

// post hands a filled-in command to the node's hub on process p. It
// reports whether p, a stackless stream process, parked in the post's
// prefix; called again with cmd once p resumes, it carries on.
func (t *Task) post(p *sim.Proc, cmd *msg.Cmd) bool {
	if !cmd.Posting() {
		t.traceCmd(p, cmd)
	}
	hub := t.node.hub
	switch {
	case cmd.IsSend && t.sameNode(cmd.Dst):
		return hub.PostIntra(p, cmd)
	case cmd.IsSend:
		return hub.PostNetSend(p, cmd, t.rt.nodes[t.rt.placements[cmd.Dst].Node].hub)
	case cmd.Src != AnySource && t.sameNode(cmd.Src):
		return hub.PostIntra(p, cmd)
	default:
		// Remote or wildcard source: the hub's unified matcher covers
		// both arrived internode messages and local sends.
		return hub.PostNetRecv(p, cmd)
	}
}

// postSend initiates a collective's internal send and returns its request
// record, which the collective's wait frees.
func (t *Task) postSend(buf xmem.Addr, bytes int64, dst, tag int, o callOpts) *request {
	r := t.newRequest()
	t.initCmd(&r.cmd, t.cmdWhy, true, buf, bytes, t.rank, dst, tag, o)
	t.post(t.proc, &r.cmd)
	return r
}

// postRecv posts a collective's internal receive, like postSend.
func (t *Task) postRecv(buf xmem.Addr, bytes int64, src, tag int, o callOpts) *request {
	r := t.newRequest()
	t.initCmd(&r.cmd, t.cmdWhy, false, buf, bytes, src, t.rank, tag, o)
	t.post(t.proc, &r.cmd)
	return r
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

// The world's point-to-point entry points are declared on Task rather
// than promoted from its embedded world communicator: their rank check
// names the world ("rank 5 out of range [0,2)"), not a communicator id.

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
func (t *Task) Isend(addr xmem.Addr, count int, dt mpi.Datatype, dst, tag int, opts ...Opt) Request {
	t.checkRank(dst)
	return t.world.p2p(uqIsend, addr, count, dt, dst, tag, opts)
}

// Irecv is MPI_Irecv on MPI_COMM_WORLD.
func (t *Task) Irecv(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) Request {
	if src != AnySource {
		t.checkRank(src)
	}
	return t.world.p2p(uqIrecv, addr, count, dt, src, tag, opts)
}

// p2p is the one path of the four point-to-point ops over communicator c.
// peer is a communicator rank, or AnySource for a receive; the entry point
// has checked it. With Async(q) the op joins activity queue q. Otherwise
// its command is posted at once: a non-blocking op returns its request, and
// a blocking op waits for it, accounts it under its own name, frees it and
// returns the null request.
func (c *Comm) p2p(k uqKind, addr xmem.Addr, count int, dt mpi.Datatype, peer, tag int, opts []Opt) Request {
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
		return t.enqueueUnifiedMPI(k, buf, bytes, peer, tag, o)
	}
	r := t.newRequest()
	cmd := &r.cmd
	t.initCmd(cmd, t.cmdWhy, kind.send, buf, bytes, src, dst, tag, o)
	if !kind.blocking {
		start := t.proc.Now()
		t.post(t.proc, cmd)
		t.mpiTime(kind.op, start)
		return r.handle()
	}
	start := t.spanStart()
	t.post(t.proc, cmd)
	t.wait(r, kind.op, start)
	t.freeRequest(r)
	return Request{}
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

// Wait is MPI_Wait/MPI_Waitall over the given requests: it waits for each
// live request in turn and frees it. Null requests return at once.
func (t *Task) Wait(reqs ...Request) {
	for _, h := range reqs {
		if r, op := t.live(h); r != nil {
			t.wait(r, "wait", t.spanStart())
			t.release(r, op)
		}
	}
}

// wait blocks until r completes, accounts the call under op from start and
// fails the task if r's command failed.
func (t *Task) wait(r *request, op string, start sim.Time) {
	cmd := &r.cmd
	cmd.Done.Wait(t.proc)
	peer, bytes := cmdPeer(cmd)
	t.mpiEnd(op, start, -1, peer, bytes, cmd)
	t.checkCmd(cmd)
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
func (t *Task) enqueueUnifiedMPI(k uqKind, buf xmem.Addr, bytes int64, peer, tag int, o callOpts) Request {
	if t.rt.Cfg.Mode == Legacy || !t.rt.feats.UnifiedQueue {
		t.failf("async MPI (%s) requires the IMPACC unified activity queue", strings.TrimPrefix(uqNames[k].why, "op:"))
	}
	q := o.async
	op := t.newUQOp()
	op.uq, op.buf, op.bytes, op.tag, op.readonly = k, buf, bytes, tag, o.readonly
	op.peer, op.comm, op.q = int32(peer), int32(o.comm), int32(q)
	t.env.Stream(q).Enqueue(op)
	c := t.uqPending[q]
	if c.head == nil {
		c.head = op
	} else {
		c.tail.next = op
	}
	c.tail = op
	t.uqPending[q] = c
	return Request{gen: op.gen, slot: op.slot}
}

// Why labels the op's stream entry in deadlock diagnostics.
func (op *uqOp) Why(*device.Stream) string { return uqNames[op.uq].why }

// Run runs when the queue reaches the operation: it posts the command and
// arms the op as the command's completion callback. A post parked in its
// prefix keeps its progress in the command, so a resumed Run carries on.
func (op *uqOp) Run(_ *device.Stream, p *sim.Proc) bool {
	t, cmd := op.t, &op.record().cmd
	if !cmd.Posting() {
		cmd.PostedAt = p.Now()
	}
	if t.post(p, cmd) {
		return true
	}
	if tr := t.rt.Cfg.Trace; tr != nil && cmd.TraceID != 0 {
		// The queued operation observes its own command: its span is
		// recorded on the stream lane under the command's trace ID, so
		// message edges point at the stream activity, not the host. The
		// span opens here, and Call records it.
		tr.open(t.pl.Node)
		tr.claim(t.pl.Node, cmd.TraceID, cmd.TraceID, p.Now())
	}
	cmd.Done.OnFire(op)
	return false
}

// Call runs when the command finishes: it records the latency of the
// queued op itself, from when the queue reached it and posted its command,
// and its stream-lane span.
func (op *uqOp) Call() {
	t, cmd := op.t, &op.r.cmd
	name := uqNames[op.uq].op
	t.mpiObserve(name, cmd.PostedAt)
	if tr := t.rt.Cfg.Trace; tr != nil && cmd.TraceID != 0 {
		peer, bytes := cmdPeer(cmd)
		tr.close(Span{ID: cmd.TraceID, Rank: t.rank, Node: t.pl.Node,
			Stream: int(op.q), Kind: "mpi", Name: name, Start: cmd.PostedAt,
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
	d := t.drainFree
	if d == nil {
		d = new(uqDrain)
	} else {
		t.drainFree, d.next = d.next, nil
	}
	d.head = head
	t.env.Stream(q).Enqueue(d)
}

// uqDrain is the stream entry of a uqBarrier: it waits, in enqueue order,
// for the chain of MPI operations starting at head, the op it waits on
// now. The task recycles it.
type uqDrain struct {
	device.Entry
	head *uqOp
	next *uqDrain // the next free drain
}

func (d *uqDrain) Why(*device.Stream) string { return "op:uq-barrier" }

// Run completes each op of the chain as it passes it, as "#pragma acc
// wait" does. Once an op's command has finished (and the op's completion
// callback, which the command's Done runs before this process resumes, has
// read it), the op's generation moves on, which nulls every handle to it,
// and the op and its command record go back on their task's free lists.
// An op whose command failed fails the task instead and is never freed.
// The drain then frees itself. Parked on an op, the drain keeps it as its
// head, so a resumed Run carries on with it.
func (d *uqDrain) Run(_ *device.Stream, p *sim.Proc) bool {
	t := d.head.t
	for op := d.head; op != nil; op = d.head {
		r := op.r
		if r.cmd.Done.Wait(p) {
			return true
		}
		if r.cmd.Err != nil {
			panic(&RunError{Rank: t.rank, Err: r.cmd.Err})
		}
		d.head = op.next
		t.freeRequest(r)
		op.gen++
		op.r, op.next, t.uqFree = nil, t.uqFree, op
	}
	d.next, t.drainFree = t.drainFree, d
	return false
}

// Status reports which message satisfied a receive (MPI_Status): the world
// rank of the sender, the tag, and the element count actually received.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// RecvStatus is MPI_Recv returning the matched status — the companion of
// wildcard receives. Count is in dt units. The status is read from the
// request before the request is freed.
func (t *Task) RecvStatus(addr xmem.Addr, count int, dt mpi.Datatype, src, tag int, opts ...Opt) Status { //impacc:allow-unused reproduces the paper's MPI API (§3)
	r, op := t.live(t.Irecv(addr, count, dt, src, tag, opts...))
	t.wait(r, "wait", t.spanStart())
	cmd := &r.cmd
	st := Status{Source: cmd.MatchedSrc, Tag: cmd.MatchedTag, Count: int(cmd.MatchedBytes / dt.Size())}
	t.release(r, op)
	return st
}

// Waitany is MPI_Waitany: block until one of the live requests completes,
// free it and return its index. Null entries are skipped, so a loop that
// waits on the same list until Waitany reports -1 need not clear the
// entries it was given; with no live entry (or none at all) Waitany
// returns -1 at once, MPI_Waitany's MPI_UNDEFINED. A completed request
// placed on a unified activity queue is freed too; its queue, not
// Waitany, claims its trace span and reports its failure.
func (t *Task) Waitany(reqs ...Request) int { //impacc:allow-unused reproduces the paper's MPI API (§3)
	var lastWait uint64
	for {
		live := false
		for i, h := range reqs {
			r, op := t.live(h)
			if r == nil {
				continue
			}
			live = true
			if r.cmd.Done.Fired() {
				if op == nil {
					if tr := t.rt.Cfg.Trace; tr != nil && lastWait != 0 && r.cmd.TraceID != 0 {
						tr.claim(t.pl.Node, r.cmd.TraceID, lastWait, t.proc.Now())
					}
					t.checkCmd(&r.cmd)
				}
				t.release(r, op)
				return i
			}
		}
		if !live {
			return -1
		}
		// Park until any one fires: register a shared wake.
		any := t.eng().NewEvent("waitany")
		for _, h := range reqs {
			if r, _ := t.live(h); r != nil {
				r.cmd.Done.OnFire(sim.Func(any.Fire))
			}
		}
		start := t.spanStart()
		any.Wait(t.proc)
		lastWait = t.mpiEnd("wait", start, -1, -1, 0)
	}
}
