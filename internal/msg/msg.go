// Package msg implements IMPACC's communication engine (paper §3.7, §3.8):
// the per-node message handler thread, the in-order command queues between
// task threads and the handler, FIFO message matching, the
// message fusion technique (a matched intra-node send/recv pair becomes one
// HtoH/HtoD/DtoH/DtoD copy), direct device-to-device copies over a shared
// PCIe root complex, node heap aliasing for read-only producer-consumer
// pairs, and the internode paths (GPUDirect RDMA or pinned-buffer staging).
//
// The same hub also runs the legacy MPI+OpenACC baseline: tasks are then
// OS processes with private address spaces, intra-node transport stages
// through shared memory with a redundant host-to-host copy, and device
// buffers are not accepted (applications stage them explicitly).
package msg

import (
	"fmt"

	"impacc/internal/device"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
	"impacc/internal/topo"
	"impacc/internal/xmem"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config selects the hub's behaviour. The defaults for each mode live in
// the core runtime; individual features toggle independently for ablation
// benchmarks.
type Config struct {
	// Legacy switches the hub to the MPI+OpenACC baseline transport.
	Legacy bool
	// Aliasing enables node heap aliasing (IMPACC).
	Aliasing bool
	// RDMA enables GPUDirect-RDMA internode transfers from/to device
	// memory without host staging, where the fabric supports it.
	RDMA bool
	// DirectP2P enables direct DtoD copies over a shared root complex.
	DirectP2P bool
	// ThreadMultiple mirrors the underlying MPI library's threading
	// support; when false, internode calls from one node serialize.
	ThreadMultiple bool

	// MPIOverhead is the per-call cost of the underlying MPI library.
	MPIOverhead sim.Dur

	// NetTimeout, when positive, bounds how long a receive posted through
	// PostNetRecv waits for its message before failing with a *NetError.
	// Zero disables timeouts (healthy-run behavior is unchanged).
	NetTimeout sim.Dur
	// MaxNetRetries bounds send re-attempts across a down link before the
	// command fails. Set it, and NetBackoff, when a fault model is
	// attached.
	MaxNetRetries int
	// NetBackoff is the first send-retry delay; each further attempt
	// doubles it.
	NetBackoff sim.Dur
}

// Cmd is one send or receive command. Task threads create commands and
// enqueue them; the handler matches pairs and completes them.
//
// The owner may reuse a command once its Done has fired and it did not
// fail: no hub structure reads a *Cmd after its Done fired, except a failed
// one, which the hub's lazy purges may still find parked (a failed command
// fails its task, so it is never reused). The one hub reference that
// outlives the command, a receive's NetTimeout deadline, acts only while
// Gen is unchanged.
//
// The bools and the post stage sit together at the end, so the struct
// carries no padding: core's request record embeds a Cmd and must stay
// within the 192-byte size class (TestRequestSize).
type Cmd struct {
	Src   int // sender rank (AnySource allowed on receives)
	Dst   int // receiver rank
	Tag   int // message tag (AnyTag allowed on receives)
	Comm  int // communicator context id (0 = MPI_COMM_WORLD)
	Addr  xmem.Addr
	Bytes int64
	// Ep is the posting task's device context; its Space is the task's
	// address space (shared per node under IMPACC, private per task under
	// legacy).
	Ep *device.Context
	// Done fires when the operation completes (buffer reusable). The
	// command owns it: initialize it with Engine.InitEvent before posting.
	Done sim.Event
	// Err records a completion error; inspect after Done fires.
	Err error
	// MatchedSrc/MatchedTag/MatchedBytes record, on a completed receive,
	// which message satisfied it (MPI_Status.MPI_SOURCE / MPI_TAG and the
	// received size) — meaningful for wildcard receives.
	MatchedSrc, MatchedTag int
	MatchedBytes           int64
	// TraceID tags the command for causal tracing (0 = untraced); PostedAt
	// records when the task, or the activity queue it was placed on,
	// initiated the operation. The core runtime sets both when a tracer is
	// attached, and they surface in Hub.OnMatch; it sets PostedAt on a
	// queued command always, as the start of the queued op's latency.
	TraceID  uint64
	PostedAt sim.Time
	// seq is the hub-local posting order stamp, assigned when the command
	// parks in a pending structure; "earliest posted" comparisons across
	// the keyed queues and the wildcard list reduce to min-seq.
	seq uint64
	// Gen is the owner's reuse generation: an owner that recycles the
	// command moves it on when it frees the command and keeps it when it
	// fills the command in again.
	Gen uint32

	IsSend bool
	// ReadOnly carries the IMPACC directive's readonly attribute
	// (#pragma acc mpi sendbuf(readonly) / recvbuf(readonly)).
	ReadOnly bool
	// matched marks a receive the handler has paired with a message; a
	// NetTimeout deadline firing after this point is a no-op even though
	// Done waits on the transfer stages.
	matched bool
	// stage is how far the post in progress has got through its parking
	// prefix; stageLock (zero) except while a stackless poster is parked
	// in it.
	stage stage
}

// stage is a point in a post's parking prefix (Hub.enter).
type stage uint8

const (
	stageLock     stage = iota // the serial lock is next
	stageOverhead              // the call overhead is next
	stagePaid                  // the prefix is done
)

// Posting reports whether a post of the command is parked in its prefix:
// the caller, a stackless process, is to call the same Post method again
// when it resumes.
func (c *Cmd) Posting() bool { return c.stage != stageLock }

// accepts reports whether receive r takes a message with the given concrete
// envelope. Matching is scoped to the communicator context: wildcards never
// cross communicators.
func (r *Cmd) accepts(comm, dst, src, tag int) bool {
	if r.Comm != comm || r.Dst != dst {
		return false
	}
	if r.Src != AnySource && r.Src != src {
		return false
	}
	if r.Tag != AnyTag && r.Tag != tag {
		return false
	}
	return true
}

// FaultModel is the slice of a chaos plan the hub consults: whole-link and
// RDMA-path availability per node over virtual time. RDMAUp also names the
// asking node, whose shard records the injection. The internal/fault
// package's Plan satisfies it; the hub depends only on this interface.
type FaultModel interface {
	LinkUp(node int, at sim.Time) bool
	RDMAUp(from, node int, at sim.Time) bool
}

// NetError is the failure report surfaced on Cmd.Err when the resilience
// layer gives up on an internode command instead of wedging the handler.
type NetError struct {
	Op       string // "send" or "recv"
	Src, Dst int
	Tag      int
	Bytes    int64
	Attempts int      // send attempts made (0 for receive timeouts)
	At       sim.Time // virtual time of the failure
}

func (e *NetError) Error() string {
	if e.Op == "recv" {
		return fmt.Sprintf("msg: recv src=%d dst=%d tag=%d timed out at t=%dns", e.Src, e.Dst, e.Tag, int64(e.At))
	}
	return fmt.Sprintf("msg: send src=%d dst=%d tag=%d (%d bytes) gave up after %d attempts at t=%dns",
		e.Src, e.Dst, e.Tag, e.Bytes, e.Attempts, int64(e.At))
}

// The message handler's fixed software costs.
const (
	// CmdOverhead is the task-side cost of creating a message command
	// and enqueuing it (IMPACC intra-node path).
	CmdOverhead = 300 * sim.Nanosecond
	// HandlerOverhead is the handler-side cost per processed command.
	HandlerOverhead = 400 * sim.Nanosecond
	// AliasOverhead is the cost of applying node heap aliasing.
	AliasOverhead = sim.Microsecond
)

// netMsg is an internode message arriving at the destination node: the
// entry unit of the pending internode message queue. It is its own
// cross-shard delivery (Call), and it comes off the sending hub's spare
// list and returns to the receiving hub's (see Hub.spareMsgs), so sending
// one allocates nothing beyond its eager snapshot.
type netMsg struct {
	Src, Dst, Tag int
	Comm          int
	Bytes         int64
	snapshot      []byte // eager-buffered payload; nil for unbacked sends
	seq           uint64 // hub-local arrival order stamp (see Cmd.seq)
	// SendID/SendPost carry the sending command's trace identity across the
	// network so the destination hub can report the match (see Hub.OnMatch).
	SendID   uint64
	SendPost sim.Time
	// to is the destination hub and occupy the ejection occupancy that
	// netInject priced.
	to     *Hub
	occupy sim.Dur
	// from and cmd are the sending hub and command of a staged send, which
	// injects itself when its staging copy is done (stagedInject); recv and
	// start are the receive a staged receive lands in when its staging copy
	// is done (stagedLand), and the time that copy started.
	from  *Hub
	cmd   *Cmd
	recv  *Cmd
	start sim.Time
	// direct marks a GPUDirect RDMA transfer that has already landed in
	// device memory (no receive-side staging copy).
	direct bool
	// accepted marks a message whose ejection side is priced: its next
	// Call delivers it.
	accepted bool
}

// Stats is a snapshot of the hub's counters, used by the Figure 6/7
// experiments and the run report. The live counts are the hub's telemetry
// record (the single source of truth); Hub.Stats materializes this view.
type Stats struct {
	IntraMsgs    uint64 // intra-node commands processed
	NetIn        uint64 // internode messages received
	NetOut       uint64 // internode messages sent
	FusedCopies  uint64 // matched pairs served by one fused copy
	LegacyCopies uint64 // legacy shared-memory transport copies
	Aliases      uint64 // pairs served by node heap aliasing
	RDMADirect   uint64 // internode transfers using GPUDirect RDMA
	Staged       uint64 // internode transfers staged through host memory
}

// Telemetry family names. Every hub counter family carries a node label.
const (
	IntraMsgsTotal    = "msg_intra_msgs_total"
	NetInTotal        = "msg_net_in_total"
	NetOutTotal       = "msg_net_out_total"
	FusedCopiesTotal  = "msg_fused_copies_total"
	LegacyCopiesTotal = "msg_legacy_copies_total"
	AliasesTotal      = "msg_aliases_total"
	RDMADirectTotal   = "msg_rdma_direct_total"
	StagedTotal       = "msg_staged_total"
	// IntraQueuePeak / PendingNetPeak gauge the deepest observed backlog
	// of the intra-node message queue and the pending internode message
	// queue (§3.7 handler pressure).
	IntraQueuePeak = "msg_intra_queue_peak"
	PendingNetPeak = "msg_pending_net_peak"
)

// Resilience family names. These register lazily in SetFaults so healthy
// (chaos-free) runs publish no extra families and their metric snapshots
// stay byte-identical to pre-chaos baselines.
const (
	NetRetriesTotal  = "msg_net_retries_total"
	NetTimeoutsTotal = "msg_net_timeouts_total"
	NetReroutedTotal = "msg_net_rerouted_total"
	NetFailuresTotal = "msg_net_failures_total"
)

// The samples of a hub record, in hubSchema's order.
const (
	hubIntraMsgs = iota
	hubNetIn
	hubNetOut
	hubFusedCopies
	hubLegacyCopies
	hubAliases
	hubRDMADirect
	hubStaged
	hubIntraQueuePeak
	hubPendingNetPeak
	hubSamples
)

// hubSchema is the ten families a hub record reads as, labeled by node.
var hubSchema = telemetry.NewRecordSchema(
	telemetry.NewFamily(IntraMsgsTotal, "intra-node commands processed", telemetry.KindCounter, "node"),
	telemetry.NewFamily(NetInTotal, "internode messages received", telemetry.KindCounter, "node"),
	telemetry.NewFamily(NetOutTotal, "internode messages sent", telemetry.KindCounter, "node"),
	telemetry.NewFamily(FusedCopiesTotal, "matched pairs served by one fused copy", telemetry.KindCounter, "node"),
	telemetry.NewFamily(LegacyCopiesTotal, "legacy shared-memory transport copies", telemetry.KindCounter, "node"),
	telemetry.NewFamily(AliasesTotal, "pairs served by node heap aliasing", telemetry.KindCounter, "node"),
	telemetry.NewFamily(RDMADirectTotal, "internode transfers using GPUDirect RDMA", telemetry.KindCounter, "node"),
	telemetry.NewFamily(StagedTotal, "internode transfers staged through host memory", telemetry.KindCounter, "node"),
	telemetry.NewFamily(IntraQueuePeak, "deepest observed intra-node message queue backlog", telemetry.KindGauge, "node"),
	telemetry.NewFamily(PendingNetPeak, "deepest observed pending internode message backlog", telemetry.KindGauge, "node"),
)

// hubRecord is a hub's counters and backlog peaks as plain samples, which
// its engine's registry reads only when snapshotted or merged.
type hubRecord struct {
	node string
	s    [hubSamples]telemetry.Sample
}

func (r *hubRecord) Record() (*telemetry.RecordSchema, string, []telemetry.Sample) {
	return hubSchema, r.node, r.s[:]
}

// The resilience families, registered lazily (SetFaults).
var (
	netRetries  = telemetry.NewFamily(NetRetriesTotal, "internode send attempts deferred by a down link", telemetry.KindCounter, "node")
	netTimeouts = telemetry.NewFamily(NetTimeoutsTotal, "internode receives failed by timeout", telemetry.KindCounter, "node")
	netRerouted = telemetry.NewFamily(NetReroutedTotal, "RDMA transfers rerouted to host staging", telemetry.KindCounter, "node")
	netFailures = telemetry.NewFamily(NetFailuresTotal, "internode commands failed after exhausting retries", telemetry.KindCounter, "node")
)

// faultCounters are the resilience telemetry handles; nil on healthy runs.
type faultCounters struct {
	retries, timeouts, rerouted, failures *telemetry.Counter
}

// Hub is the per-node message engine. Under IMPACC it embodies the single
// message handler thread of Figure 1; under legacy it stands in for the
// underlying MPI library's shared-memory transport.
type Hub struct {
	Eng  *sim.Engine
	Fab  *topo.Fabric
	Node int
	Cfg  Config
	Heap *xmem.HeapTable

	// OnMatch, when set, is invoked at every send/recv match instant with
	// the pair's trace IDs, the send's posting time, and the payload size —
	// the hook the causal tracer uses to record message edges. Called only
	// when both sides carry a trace ID.
	OnMatch func(sendID, recvID uint64, post sim.Time, bytes int64)
	// OnFault, when set, is invoked at the end of every injected resilience
	// interval (send-retry backoff) with the affected rank and the interval
	// bounds — the hook the causal tracer uses to attribute fault time.
	OnFault func(kind string, rank int, start, end sim.Time)

	rec    hubRecord
	fctr   *faultCounters
	faults FaultModel

	// The paper's queues (§3.7) are lock-free multi-producer single-consumer;
	// here that property is a cost (CmdOverhead, handlerCPU), not host
	// concurrency, since only the hub's own shard goroutine touches them.
	intraQ   sim.FIFO[*Cmd]    // intra-node message queue
	pendingQ sim.FIFO[*netMsg] // pending internode message queue
	// handlerCPU serializes the single message handler thread's per-command
	// processing time: commands from every task queue up on it in FIFO
	// order, exactly like the paper's single consumer thread.
	handlerCPU *sim.FIFOResource

	// Matching state. Pending sends, concrete receives, and arrived
	// internode messages are indexed by their fully-concrete envelope
	// (comm, dst, src, tag), FIFO per key, so the common matching step is
	// O(1) amortized while MPI's non-overtaking order per (source, tag)
	// is preserved by construction. Receives with MPI_ANY_SOURCE or
	// MPI_ANY_TAG stay in a posting-order side list (wildcards are rare;
	// scanning it is bounded by the number of pending wildcard receives).
	// matchSeq stamps every parked entry so cross-structure "earliest
	// posted" ties resolve exactly as the historical linear scans did.
	matchSeq  uint64
	sendQ     keyedFIFO[*Cmd]
	recvQ     keyedFIFO[*Cmd]
	arrivedQ  keyedFIFO[*netMsg]
	wildRecvs []*Cmd

	serial *sim.Semaphore // internode serialization without THREAD_MULTIPLE

	// handleNext / handleNextNet are the handler thread's two dispatch
	// steps, bound once so dispatching a command allocates nothing.
	handleNext, handleNextNet sim.Callback
	// freePairs recycles the records of intra-node pairs in flight.
	freePairs *pairOp
	// spareMsgs recycles internode wire messages: a send takes one from
	// its own hub's list and the message returns to the list of the hub
	// it ends on, so each list is touched only by its own shard and a
	// message crosses shards only as the Post that delivers it. At most
	// maxSpareMsgs are kept.
	spareMsgs []*netMsg
}

// maxSpareMsgs bounds a hub's spare wire messages. Messages leave the
// sender's list and return to the receiver's, so a hub that receives more
// than it sends, such as a gather root, would otherwise keep one record
// for every message it ever took in. A halo exchange returns about as many
// messages to a hub as it takes: unbounded, the spare lists of the
// impacc-perf workloads peak at 2 (Jacobi) and 12 (LULESH) per hub. So 32
// spares serve the steady state of those exchanges with room to spare,
// while the root of a 1024-node gather keeps 32 records (about 5 KB)
// rather than 1023.
const maxSpareMsgs = 32

// newNetMsg takes a wire message off the hub's spare list, or makes one.
func (h *Hub) newNetMsg() *netMsg {
	if n := len(h.spareMsgs); n > 0 {
		m := h.spareMsgs[n-1]
		h.spareMsgs = h.spareMsgs[:n-1]
		return m
	}
	return new(netMsg)
}

// freeNetMsg ends wire message m on hub h, the hub whose shard holds it:
// the receiver once it landed or failed, the sender when it never left.
// Clearing it drops its payload snapshot.
func (h *Hub) freeNetMsg(m *netMsg) {
	if len(h.spareMsgs) < maxSpareMsgs {
		*m = netMsg{}
		h.spareMsgs = append(h.spareMsgs, m)
	}
}

// matchKey is a fully-concrete message envelope: the unit of FIFO matching.
type matchKey struct {
	comm, dst, src, tag int
}

// keyedFIFO holds pending entries FIFO per concrete envelope. A key's first
// entry lives in its map slot, so parking one entry per key, the common
// case, allocates no slice.
type keyedFIFO[T stamped] map[matchKey]parked[T]

// stamped is an entry of a keyedFIFO: a command or an arrived message,
// ordered by its hub-local stamp.
type stamped interface{ order() uint64 }

func (c *Cmd) order() uint64    { return c.seq }
func (m *netMsg) order() uint64 { return m.seq }

// parked is one key's pending entries: head, then rest in arrival order.
type parked[T any] struct {
	head T
	rest []T
}

// push appends v to k's queue.
func (m keyedFIFO[T]) push(k matchKey, v T) {
	q, ok := m[k]
	if !ok {
		m[k] = parked[T]{head: v}
		return
	}
	q.rest = append(q.rest, v)
	m[k] = q
}

// first returns the head of k's queue; ok is false when it is empty.
func (m keyedFIFO[T]) first(k matchKey) (v T, ok bool) {
	q, ok := m[k]
	return q.head, ok
}

// peek returns the earliest-queued entry the receive r accepts, plus its
// key, without consuming it; ok is false when there is none. A concrete
// receive is one map lookup; a wildcard receive takes the min-stamp head
// across matching keys (unique stamps keep this independent of map
// iteration order).
func (m keyedFIFO[T]) peek(r *Cmd) (best T, bestK matchKey, ok bool) {
	if r.Src != AnySource && r.Tag != AnyTag {
		k := matchKey{r.Comm, r.Dst, r.Src, r.Tag}
		best, ok = m.first(k)
		return best, k, ok
	}
	for k, q := range m {
		if r.accepts(k.comm, k.dst, k.src, k.tag) && (!ok || q.head.order() < best.order()) {
			best, bestK, ok = q.head, k, true
		}
	}
	return best, bestK, ok
}

// pop drops the head of k's queue, deleting the key when it empties.
func (m keyedFIFO[T]) pop(k matchKey) {
	q := m[k]
	if len(q.rest) == 0 {
		delete(m, k)
		return
	}
	var zero T
	head := q.rest[0]
	q.rest[0] = zero
	m[k] = parked[T]{head: head, rest: q.rest[1:]}
}

// NewHub creates the node's message engine.
func NewHub(eng *sim.Engine, fab *topo.Fabric, node int, cfg Config, heap *xmem.HeapTable) *Hub {
	h := &Hub{
		Eng: eng, Fab: fab, Node: node, Cfg: cfg, Heap: heap,
		handlerCPU: eng.NewFIFOResource(fmt.Sprintf("%s/handler", fab.Sys.Nodes[node].Name)),
		sendQ:      keyedFIFO[*Cmd]{},
		recvQ:      keyedFIFO[*Cmd]{},
		arrivedQ:   keyedFIFO[*netMsg]{},
	}
	h.rec.node = fab.Sys.Nodes[node].Name
	eng.Metrics.AddRecord(&h.rec)
	if !cfg.ThreadMultiple {
		h.serial = eng.NewSemaphore(1, fmt.Sprintf("hub%d-serial", node))
	}
	h.handleNext = sim.Func(func() {
		if cmd, ok := h.intraQ.Pop(); ok {
			h.handleCmd(cmd)
		}
	})
	h.handleNextNet = sim.Func(func() {
		if m, ok := h.pendingQ.Pop(); ok {
			h.handleNet(m)
		}
	})
	return h
}

// SetFaults attaches a chaos fault model. The resilience counters register
// here — not in NewHub — so healthy runs publish no chaos families.
func (h *Hub) SetFaults(fm FaultModel) {
	h.faults = fm
	if fm == nil {
		h.fctr = nil
		return
	}
	reg, name := h.Eng.Metrics, h.rec.node
	h.fctr = &faultCounters{
		retries:  reg.Counter(netRetries, name),
		timeouts: reg.Counter(netTimeouts, name),
		rerouted: reg.Counter(netRerouted, name),
		failures: reg.Counter(netFailures, name),
	}
}

// Stats reads the hub's counters out of its telemetry record.
func (h *Hub) Stats() Stats {
	s := &h.rec.s
	return Stats{
		IntraMsgs:    uint64(s[hubIntraMsgs].V),
		NetIn:        uint64(s[hubNetIn].V),
		NetOut:       uint64(s[hubNetOut].V),
		FusedCopies:  uint64(s[hubFusedCopies].V),
		LegacyCopies: uint64(s[hubLegacyCopies].V),
		Aliases:      uint64(s[hubAliases].V),
		RDMADirect:   uint64(s[hubRDMADirect].V),
		Staged:       uint64(s[hubStaged].V),
	}
}

// count adds d to the record's sample i at the hub's virtual time.
func (h *Hub) count(i int, d int64) { h.rec.s[i].Add(d, int64(h.Eng.Now())) }

// peak raises the record's peak sample i to a queue length n.
func (h *Hub) peak(i, n int) { h.rec.s[i].SetMax(int64(n), int64(h.Eng.Now())) }

// dispatch schedules the handler thread to consume the next queued item
// after its per-command processing time.
func (h *Hub) dispatch(net bool) {
	_, end := h.handlerCPU.UseAsync(HandlerOverhead)
	if net {
		h.Eng.CallAt(end, h.handleNextNet)
	} else {
		h.Eng.CallAt(end, h.handleNext)
	}
}

// HandlerBusy reports the handler thread's accumulated processing time.
func (h *Hub) HandlerBusy() sim.Dur { return h.handlerCPU.BusyTime() }

// enter takes the caller of a post of cmd through the post's parking
// prefix from where cmd.stage stands: the serial lock when lock is set and
// the hub serializes internode calls, then over of call overhead. It
// reports whether p, a stackless process, parked; the caller then returns
// and calls the post again once p resumes. A post that gets through resets
// cmd.stage and runs its tail, which never parks.
func (h *Hub) enter(p *sim.Proc, cmd *Cmd, lock bool, over sim.Dur) bool {
	if cmd.stage == stageLock {
		cmd.stage = stageOverhead
		if lock && h.serial != nil && h.serial.Acquire(p) {
			return true
		}
	}
	if cmd.stage == stageOverhead {
		cmd.stage = stagePaid
		if over > 0 && p.Sleep(over) {
			return true
		}
	}
	cmd.stage = stageLock
	return false
}

// PostIntra submits an intra-node command from the calling task (or stream)
// process. The task pays the command-creation overhead; the handler does
// the rest (paper §3.7: "the task threads shift their intra-node
// communication onto the communication thread by inserting message commands
// into the intra-node message queues"). It reports whether a stackless p
// parked in the overhead (see Cmd.Posting).
func (h *Hub) PostIntra(p *sim.Proc, cmd *Cmd) bool {
	over := CmdOverhead
	if h.Cfg.Legacy {
		over = h.Cfg.MPIOverhead
	}
	if h.enter(p, cmd, false, over) {
		return true
	}
	h.count(hubIntraMsgs, 1)
	h.intraQ.Push(cmd)
	h.peak(hubIntraQueuePeak, h.intraQ.Len())
	h.dispatch(false)
	return false
}

func (h *Hub) handleCmd(cmd *Cmd) {
	if cmd.IsSend {
		if r := h.takeRecvFor(cmd.Comm, cmd.Dst, cmd.Src, cmd.Tag); r != nil {
			h.completePair(cmd, r)
			return
		}
		h.stamp(&cmd.seq)
		h.sendQ.push(matchKey{cmd.Comm, cmd.Dst, cmd.Src, cmd.Tag}, cmd)
		return
	}
	// Receive: first try pending intra sends, then arrived internode
	// messages (distinct source ranks; FIFO within each origin).
	if cmd.Done.Fired() {
		return // timed out before the handler dequeued it
	}
	if s, k, ok := h.sendQ.peek(cmd); ok {
		h.sendQ.pop(k)
		h.completePair(s, cmd)
		return
	}
	if m, k, ok := h.arrivedQ.peek(cmd); ok {
		h.arrivedQ.pop(k)
		h.completeNet(m, cmd)
		return
	}
	h.stamp(&cmd.seq)
	if cmd.Src == AnySource || cmd.Tag == AnyTag {
		h.wildRecvs = append(h.wildRecvs, cmd)
	} else {
		h.recvQ.push(matchKey{cmd.Comm, cmd.Dst, cmd.Src, cmd.Tag}, cmd)
	}
}

// stamp assigns the next posting-order sequence number.
func (h *Hub) stamp(seq *uint64) {
	h.matchSeq++
	*seq = h.matchSeq
}

// takeRecvFor removes and returns the earliest-posted receive accepting the
// concrete envelope, considering both the keyed FIFO and the wildcard list;
// nil when none matches. Sequence stamps are unique, so the min-seq winner
// is deterministic.
func (h *Hub) takeRecvFor(comm, dst, src, tag int) *Cmd {
	k := matchKey{comm, dst, src, tag}
	// Receives abandoned by a NetTimeout stay parked until matching next
	// touches their queue; purge them here.
	best, ok := h.recvQ.first(k)
	for ok && best.Done.Fired() {
		h.recvQ.pop(k)
		best, ok = h.recvQ.first(k)
	}
	wildIdx := -1
	// wildRecvs is in posting order, so the first live acceptor is the
	// earliest wildcard candidate.
	for i := 0; i < len(h.wildRecvs); {
		r := h.wildRecvs[i]
		if r.Done.Fired() {
			h.wildRecvs = append(h.wildRecvs[:i], h.wildRecvs[i+1:]...)
			continue
		}
		if r.accepts(comm, dst, src, tag) {
			if best == nil || r.seq < best.seq {
				best, wildIdx = r, i
			}
			break
		}
		i++
	}
	switch {
	case best == nil:
		return nil
	case wildIdx >= 0:
		h.wildRecvs = append(h.wildRecvs[:wildIdx], h.wildRecvs[wildIdx+1:]...)
	default:
		h.recvQ.pop(k)
	}
	return best
}

// pairOp is a matched intra-node pair in flight. Its copy legs run back to
// back from the record itself, scheduled as a sim.Callback: each leg starts
// at the previous one's completion, and the pair lands at the last one's.
// A pair with no legs (zero bytes, or served by aliasing) only completes.
// The record returns to the hub's free list as the pair lands.
type pairOp struct {
	h          *Hub
	send, recv *Cmd
	route      device.Route
	leg        int // index of the next leg to price
	dir        device.Direction
	start      sim.Time
	next       *pairOp // free-list link
}

// newPair takes a pair record off the free list, or makes one.
func (h *Hub) newPair(send, recv *Cmd) *pairOp {
	pr := h.freePairs
	if pr == nil {
		pr = new(pairOp)
	} else {
		h.freePairs = pr.next
	}
	*pr = pairOp{h: h, send: send, recv: recv}
	return pr
}

// nextLeg prices the pair's next leg from now and schedules the record at
// its completion.
func (pr *pairOp) nextLeg() {
	l := pr.route.Leg(pr.leg)
	pr.leg++
	pr.h.Eng.CallAt(pr.h.price(l, pr.send.Bytes), pr)
}

// price charges one copy leg of n bytes from now and returns its completion
// time. The runtime's buffers are pre-pinned and its copies start from the
// device's near socket.
func (h *Hub) price(l device.Leg, n int64) sim.Time { return l.Price(h.Fab, h.Node, n, -1, true) }

// Call runs at the end of the pair's current leg: it starts the next leg,
// or recycles the record and completes the pair.
func (pr *pairOp) Call() {
	if pr.leg < pr.route.Len() {
		pr.nextLeg()
		return
	}
	h, send, recv, copied, dir, start := pr.h, pr.send, pr.recv, pr.route.Len() > 0, pr.dir, pr.start
	*pr = pairOp{next: h.freePairs}
	h.freePairs = pr
	if copied {
		h.finishPair(send, recv, dir, start)
		return
	}
	send.Done.Fire()
	recv.Done.Fire()
}

func (h *Hub) fail(send, recv *Cmd, err error) {
	if send != nil {
		send.Err = err
		send.Done.Fire()
	}
	if recv != nil {
		recv.Err = err
		recv.Done.Fire()
	}
}

// timeoutRecv fails a posted receive whose NetTimeout deadline elapsed
// unmatched. The command may still sit in a matching structure; fired
// entries are purged lazily the next time matching touches their queue.
// gen is the command's Gen when the receive was posted: a command its
// owner has since freed and reused is another receive, whose own deadline
// is its own.
func (h *Hub) timeoutRecv(cmd *Cmd, gen uint32) {
	if cmd.Gen != gen || cmd.matched || cmd.Done.Fired() {
		return
	}
	if h.fctr != nil {
		h.fctr.timeouts.Inc()
	}
	h.fail(nil, cmd, &NetError{Op: "recv", Src: cmd.Src, Dst: cmd.Dst, Tag: cmd.Tag, At: h.Eng.Now()})
}

// completePair serves a matched intra-node send/receive pair: node heap
// aliasing when every requirement holds, otherwise one fused copy (IMPACC)
// or the legacy staged transport.
func (h *Hub) completePair(send, recv *Cmd) {
	recv.matched = true
	if recv.Bytes < send.Bytes {
		h.fail(send, recv, fmt.Errorf("msg: truncation: recv %d bytes < send %d", recv.Bytes, send.Bytes))
		return
	}
	if h.OnMatch != nil && send.TraceID != 0 && recv.TraceID != 0 {
		h.OnMatch(send.TraceID, recv.TraceID, send.PostedAt, send.Bytes)
	}
	recv.MatchedSrc, recv.MatchedTag, recv.MatchedBytes = send.Src, send.Tag, send.Bytes
	if send.Bytes == 0 {
		// Zero-byte message: synchronization only, nothing to move.
		h.Eng.CallAt(h.Eng.Now()+sim.Time(AliasOverhead), h.newPair(send, recv))
		return
	}
	if h.tryAlias(send, recv) {
		return
	}
	dloc, err := recv.Ep.Space.Lookup(recv.Addr)
	if err != nil {
		h.fail(send, recv, err)
		return
	}
	sloc, err := send.Ep.Space.Lookup(send.Addr)
	if err != nil {
		h.fail(send, recv, err)
		return
	}
	pr := h.newPair(send, recv)
	pr.dir, pr.start = device.Classify(dloc, sloc), h.Eng.Now()
	if h.Cfg.Legacy {
		// Figure 6 (a): inter-process transport with a redundant
		// host-to-host copy — send buffer -> shm segment -> recv buffer.
		pr.route = device.ShmRoute()
		h.count(hubLegacyCopies, 2)
	} else {
		pr.route = device.PlanCopy(h.Fab, h.Node, pr.dir, dloc, sloc, h.Cfg.DirectP2P)
		h.count(hubFusedCopies, 1)
	}
	pr.nextLeg()
}

// finishPair lands a matched intra-node pair once its copy route is done:
// the payload moves, the copy is recorded from start, and both commands
// complete.
func (h *Hub) finishPair(send, recv *Cmd, dir device.Direction, start sim.Time) {
	n := send.Bytes
	if err := xmem.CopyBetween(recv.Ep.Space, recv.Addr, send.Ep.Space, send.Addr, n); err != nil {
		h.fail(send, recv, err)
		return
	}
	recv.Ep.Record(dir, n, sim.Dur(h.Eng.Now()-start))
	send.Done.Fire()
	recv.Done.Fire()
}

// tryAlias applies node heap aliasing when the five requirements of §3.8
// hold: same node (implied intra), both buffers in host heap memory, both
// calls carry the readonly attribute, the receive buffer is a whole heap
// allocation (no prior interior pointers), and the receive is fully
// overwritten (sizes equal).
func (h *Hub) tryAlias(send, recv *Cmd) bool {
	if h.Cfg.Legacy || !h.Cfg.Aliasing || h.Heap == nil {
		return false
	}
	if !send.ReadOnly || !recv.ReadOnly {
		return false
	}
	if send.Bytes != recv.Bytes {
		return false
	}
	sloc, err := send.Ep.Space.Lookup(send.Addr)
	if err != nil || sloc.Kind() != xmem.HostMem {
		return false
	}
	rloc, err := recv.Ep.Space.Lookup(recv.Addr)
	if err != nil || rloc.Kind() != xmem.HostMem {
		return false
	}
	sendEnt, ok := h.Heap.Containing(send.Addr)
	if !ok || send.Addr+xmem.Addr(send.Bytes) > sendEnt.Base+xmem.Addr(sendEnt.Size) {
		return false
	}
	recvEnt, ok := h.Heap.At(recv.Addr)
	if !ok || recvEnt.Size != recv.Bytes {
		return false
	}
	// Apply: alias the receive allocation onto the send data, retire the
	// receive heap, bump the send heap's reference count (Figure 7).
	if err := recv.Ep.Space.Alias(recv.Addr, send.Addr); err != nil {
		return false
	}
	if _, err := h.Heap.Share(send.Addr); err != nil {
		return false
	}
	h.Heap.Drop(recv.Addr)
	h.count(hubAliases, 1)
	h.Eng.CallAt(h.Eng.Now()+sim.Time(AliasOverhead), h.newPair(send, recv))
	return true
}

// Probe reports whether a message matching (src, tag, comm) destined for
// dst is available without consuming it, returning its size. It checks
// pending intra-node sends and arrived internode messages — the state an
// MPI_Iprobe would see.
func (h *Hub) Probe(dst, src, tag, comm int) (bool, int64) {
	probe := &Cmd{Src: src, Dst: dst, Tag: tag, Comm: comm}
	if s, _, ok := h.sendQ.peek(probe); ok {
		return true, s.Bytes
	}
	if m, _, ok := h.arrivedQ.peek(probe); ok {
		return true, m.Bytes
	}
	return false, 0
}
