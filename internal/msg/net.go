package msg

import (
	"fmt"

	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/xmem"
)

// PostNetSend initiates an internode send from the calling process toward
// dst's hub. The caller pays the underlying-MPI call overhead (serialized
// per node when the library lacks MPI_THREAD_MULTIPLE, paper §3.7); the
// transfer itself progresses asynchronously and cmd.Done fires when the
// local buffer is reusable.
//
// Device-memory sends use GPUDirect RDMA when both NICs support it ("the
// runtime exploits it and transfers data directly from the device memory to
// a network adapter without staging through host memory"); otherwise the
// runtime stages through its pre-pinned host buffer with an asynchronous
// device-to-host copy chained to the network injection — the
// cuStreamAddCallback pattern of §3.7. When a fault model reports the RDMA
// path down, direct transfers degrade to the staging path instead.
//
// It reports whether a stackless p parked in the lock or the overhead (see
// Cmd.Posting).
func (h *Hub) PostNetSend(p *sim.Proc, cmd *Cmd, dst *Hub) bool {
	if h.enter(p, cmd, true, h.Cfg.MPIOverhead) {
		return true
	}
	h.netSend(cmd, dst)
	return false
}

// netSend is PostNetSend's tail, run once its caller holds the serial lock
// (when the hub has one) and has paid the call overhead.
func (h *Hub) netSend(cmd *Cmd, dst *Hub) {
	locked := h.serial != nil
	unlock := func() {
		if locked {
			h.serial.Release()
			locked = false
		}
	}
	if cmd.Bytes == 0 {
		// Zero-byte message: a bare network round of latency only.
		unlock()
		h.count(hubNetOut, 1)
		m := h.newNetMsg()
		*m = netMsg{Src: cmd.Src, Dst: cmd.Dst, Tag: cmd.Tag, Comm: cmd.Comm,
			SendID: cmd.TraceID, SendPost: cmd.PostedAt}
		h.netInject(cmd, m, dst, 0, 0)
		return
	}
	sloc, err := cmd.Ep.Space.Lookup(cmd.Addr)
	if err != nil {
		unlock()
		cmd.Err = err
		cmd.Done.Fire()
		return
	}
	onDevice := sloc.Kind() == xmem.DeviceMem
	if onDevice && h.Cfg.Legacy {
		unlock()
		cmd.Err = fmt.Errorf("msg: legacy MPI cannot send device memory; stage with acc update")
		cmd.Done.Fire()
		return
	}
	n := cmd.Bytes
	// Eager-buffer the payload so the sender may reuse its buffer the
	// moment Done fires. The snapshot is mandatory for backed spaces: the
	// sender's memory must never be read again after Done, so a buffer that
	// cannot be snapshotted (range escapes its segment) fails the send now
	// rather than corrupting the receive later.
	b, berr := cmd.Ep.Space.Bytes(cmd.Addr, n)
	if berr != nil {
		unlock()
		cmd.Err = berr
		cmd.Done.Fire()
		return
	}
	var snapshot []byte
	if b != nil {
		snapshot = append([]byte(nil), b...)
	}

	direct := onDevice && h.Cfg.RDMA && h.Fab.RDMACapable(h.Node, dst.Node)
	if direct && h.faults != nil {
		now := h.Eng.Now()
		if !h.faults.RDMAUp(h.Node, h.Node, now) || !h.faults.RDMAUp(h.Node, dst.Node, now) {
			// Graceful degradation: while the RDMA path flaps, fall back
			// to the pinned-buffer staging path instead of failing.
			direct = false
			h.fctr.rerouted.Inc()
		}
	}
	staged := onDevice && !direct
	if staged {
		h.count(hubStaged, 1)
	}
	if direct {
		h.count(hubRDMADirect, 1)
	}
	if !staged {
		unlock() // host-memory and RDMA sends release the call lock here
	}
	h.count(hubNetOut, 1)
	m := h.newNetMsg()
	*m = netMsg{
		Src: cmd.Src, Dst: cmd.Dst, Tag: cmd.Tag, Comm: cmd.Comm, Bytes: n,
		snapshot: snapshot,
		direct:   direct,
		SendID:   cmd.TraceID, SendPost: cmd.PostedAt,
	}
	if !staged {
		h.netInject(cmd, m, dst, n, 0)
		return
	}
	// Without MPI_THREAD_MULTIPLE the library's internal staging copy is
	// part of the serialized call (paper §3.7): hold the lock until the
	// device-to-host stage completes.
	end := h.price(device.Leg{Kind: device.PCIeLeg, Dev: sloc.Device()}, n)
	if locked {
		h.Eng.At(end, h.serial.Release)
	}
	m.from, m.cmd, m.to = h, cmd, dst
	h.Eng.CallAt(end, (*stagedInject)(m))
}

// stagedInject is a staged netMsg as the Callback that injects it once its
// device-to-host stage is done, on the sender's shard.
type stagedInject netMsg

func (s *stagedInject) Call() {
	m := (*netMsg)(s)
	m.from.netInject(m.cmd, m, m.to, m.Bytes, 0)
}

// netInject pushes a message onto the wire, deferring with deterministic
// exponential backoff while the fault model holds the sender's link down.
// Exhausting the retry budget surfaces a *NetError on the send command
// instead of wedging the transfer.
func (h *Hub) netInject(cmd *Cmd, m *netMsg, dst *Hub, n int64, attempt int) {
	if h.faults != nil && !h.faults.LinkUp(h.Node, h.Eng.Now()) {
		if attempt >= h.Cfg.MaxNetRetries {
			h.fctr.failures.Inc()
			h.fail(cmd, nil, &NetError{Op: "send", Src: cmd.Src, Dst: cmd.Dst, Tag: cmd.Tag,
				Bytes: n, Attempts: attempt, At: h.Eng.Now()})
			h.freeNetMsg(m)
			return
		}
		h.fctr.retries.Inc()
		shift := attempt
		if shift > 20 {
			shift = 20 // keep the doubling bounded
		}
		start := h.Eng.Now()
		h.Eng.After(h.Cfg.NetBackoff<<uint(shift), func() {
			if h.OnFault != nil {
				h.OnFault("retry", cmd.Src, start, h.Eng.Now())
			}
			h.netInject(cmd, m, dst, n, attempt+1)
		})
		return
	}
	// The transfer is priced in two halves so the destination may live on
	// another shard engine: the source NIC's injection side is charged here,
	// and the ejection side is charged on the destination's engine when the
	// trailing byte arrives (at least one wire latency in the future, which
	// is exactly the shard group's lookahead guarantee). The sender's buffer
	// is reusable once the message has left the wire, so Done fires at
	// arrival time regardless of ejection-side contention — a contended
	// destination NIC delays only delivery, never the sender.
	arrive, occupy := h.Fab.NetInjectAsync(h.Node, dst.Node, n)
	h.Eng.FireAt(arrive, &cmd.Done)
	m.to, m.occupy = dst, occupy
	h.Eng.Post(h.Fab.Engine(dst.Node), arrive, m)
}

// Call runs on the destination's shard: first when the trailing byte
// arrives, to price the ejection side, and again, when that NIC is busy, at
// the instant the message becomes deliverable.
func (m *netMsg) Call() {
	dst := m.to
	if !m.accepted {
		m.accepted = true
		if deliver := dst.Fab.NetAcceptAsync(dst.Node, m.occupy); deliver != dst.Eng.Now() {
			dst.Eng.CallAt(deliver, m)
			return
		}
		// Uncontended ejection NIC: the message is deliverable the instant
		// it arrives, so skip the extra deferral event. Whether the NIC is
		// busy is simulation state, so the branch is as deterministic as
		// the schedule itself.
	}
	dst.deliver(m)
}

// deliver places an arrived internode message on the pending internode
// message queue and wakes the handler.
func (h *Hub) deliver(m *netMsg) {
	h.pendingQ.Push(m)
	h.peak(hubPendingNetPeak, h.pendingQ.Len())
	h.dispatch(true)
}

// PostNetRecv submits a receive for an internode (or any-source) message.
// The caller pays the MPI call overhead; matching happens in the handler.
// A positive Config.NetTimeout arms a deadline: a receive still unmatched
// when it elapses fails with a *NetError instead of blocking forever. It
// reports whether a stackless p parked in the lock or the overhead (see
// Cmd.Posting).
func (h *Hub) PostNetRecv(p *sim.Proc, cmd *Cmd) bool {
	if h.enter(p, cmd, true, h.Cfg.MPIOverhead) {
		return true
	}
	if h.serial != nil {
		h.serial.Release()
	}
	if h.Cfg.NetTimeout > 0 {
		gen := cmd.Gen
		h.Eng.After(h.Cfg.NetTimeout, func() { h.timeoutRecv(cmd, gen) })
	}
	h.intraQ.Push(cmd)
	h.peak(hubIntraQueuePeak, h.intraQ.Len())
	h.dispatch(false)
	return false
}

// handleNet matches an arrived internode message against posted receives,
// or parks it with the unexpected messages.
func (h *Hub) handleNet(m *netMsg) {
	if r := h.takeRecvFor(m.Comm, m.Dst, m.Src, m.Tag); r != nil {
		h.completeNet(m, r)
		return
	}
	h.stamp(&m.seq)
	h.arrivedQ.push(matchKey{m.Comm, m.Dst, m.Src, m.Tag}, m)
}

// completeNet finishes an internode receive: an HtoD staging copy when the
// receive buffer is device memory and the transfer was not GPUDirect
// ("When a pending command completes its non-blocking communication, the
// message handler thread calls cuMemcpyAsync ... to write data to the
// device memory"), then the payload lands and Done fires.
func (h *Hub) completeNet(m *netMsg, recv *Cmd) {
	recv.matched = true
	if recv.Bytes < m.Bytes {
		h.failNet(m, recv, fmt.Errorf("msg: truncation: recv %d bytes < message %d", recv.Bytes, m.Bytes))
		return
	}
	if h.OnMatch != nil && m.SendID != 0 && recv.TraceID != 0 {
		h.OnMatch(m.SendID, recv.TraceID, m.SendPost, m.Bytes)
	}
	recv.MatchedSrc, recv.MatchedTag, recv.MatchedBytes = m.Src, m.Tag, m.Bytes
	if m.Bytes == 0 {
		h.count(hubNetIn, 1)
		h.freeNetMsg(m)
		recv.Done.Fire()
		return
	}
	dloc, err := recv.Ep.Space.Lookup(recv.Addr)
	if err != nil {
		h.failNet(m, recv, err)
		return
	}
	onDevice := dloc.Kind() == xmem.DeviceMem
	if onDevice && h.Cfg.Legacy {
		h.failNet(m, recv, fmt.Errorf("msg: legacy MPI cannot receive into device memory"))
		return
	}
	start := h.Eng.Now()
	if !onDevice || m.direct {
		h.count(hubNetIn, 1)
		h.landNet(m, recv, onDevice, start)
		return
	}
	h.count(hubStaged, 1)
	h.count(hubNetIn, 1)
	end := h.price(device.Leg{Kind: device.PCIeLeg, Dev: dloc.Device()}, m.Bytes)
	m.recv, m.start = recv, start
	h.Eng.CallAt(end, (*stagedLand)(m))
}

// stagedLand is a netMsg received into device memory as the Callback that
// lands it once its host-to-device stage is done, on the receiver's shard.
type stagedLand netMsg

func (s *stagedLand) Call() {
	m := (*netMsg)(s)
	m.to.landNet(m, m.recv, true, m.start)
}

// landNet finishes an internode receive once any staging copy is done: the
// payload lands, the copy is recorded from start, the message returns to
// the hub's spare list, and Done fires.
func (h *Hub) landNet(m *netMsg, recv *Cmd, onDevice bool, start sim.Time) {
	n := m.Bytes
	if err := h.landPayload(m, recv, n); err != nil {
		h.failNet(m, recv, err)
		return
	}
	h.freeNetMsg(m)
	dir := device.HtoH
	if onDevice {
		dir = device.HtoD
	}
	recv.Ep.Record(dir, n, sim.Dur(h.Eng.Now()-start))
	recv.Done.Fire()
}

// failNet fails internode receive recv and ends its message m.
func (h *Hub) failNet(m *netMsg, recv *Cmd, err error) {
	h.freeNetMsg(m)
	h.fail(nil, recv, err)
}

// landPayload writes the eager snapshot into the receive buffer. The live
// source space is never read here: the sender's Done fired when the message
// left the wire, so its buffer may already hold new data (the stale-read
// hazard). A backed destination with no snapshot means the send side was
// unbacked — a timing-only pairing — and there is nothing to land.
func (h *Hub) landPayload(m *netMsg, recv *Cmd, n int64) error {
	db, err := recv.Ep.Space.Bytes(recv.Addr, n)
	if err != nil {
		return err
	}
	if db == nil || m.snapshot == nil {
		return nil // unbacked on either side: timing-only run
	}
	copy(db, m.snapshot)
	return nil
}
