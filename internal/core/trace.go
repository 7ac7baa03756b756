package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"impacc/internal/msg"
	"impacc/internal/prof"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// Span is one traced interval of virtual time on an execution lane; the
// concrete type lives in internal/prof so the analyzer can consume traces
// without importing the runtime.
type Span = prof.Span

// Record kinds of streamRec.
const (
	recSpan = uint8(iota)
	recEdge
	recClaim
)

// streamRec is one entry of a lane's unified record log: a closed span, a
// causal edge, or a command claim. Message edges carry command trace IDs,
// which prof.Assemble resolves to the claiming spans; stream and event
// edges carry span IDs directly. Every record carries its stamp — the
// virtual instant it was appended (a span's end, an edge's match time, a
// claim's claim time) — plus a lane-local sequence number. Records are only
// ever appended at the owning engine's current time and the clock never
// moves backwards, so stamps are non-decreasing within a lane; the total
// order (stamp, node, seq) is therefore the canonical stream order, and any
// window fence F splits every lane's log exactly: records below F are final,
// and anything recorded later lands at or above F. That split is what lets
// the streaming sink flush incrementally yet stay byte-identical to a full
// post-run sort (see FlushWindow / WriteStream).
type streamRec struct {
	at   sim.Time
	seq  uint64
	kind uint8
	span Span      // recSpan
	edge prof.Edge // recEdge
	// recClaim: command trace ID and the span that claimed it.
	cmd, claimed uint64
}

// traceLane is the slice of the trace owned by one node. Under sharded
// execution every node's events run on that node's engine, so routing each
// append to the recording node's lane keeps the tracer lock-free: a lane is
// only ever mutated from one goroutine at a time (its shard's worker), and
// exports merge the lanes in node order after the run. Claims and pending
// command IDs are rank-keyed and a rank lives on exactly one node, so they
// shard along with the spans.
type traceLane struct {
	node    int
	recs    []streamRec
	recSeq  uint64
	nextID  uint64
	pending map[int][]uint64 // rank -> posted, not-yet-claimed command IDs
}

// push appends one record, stamping it with the lane-local sequence.
func (l *traceLane) push(r streamRec) {
	l.recSeq++
	r.seq = l.recSeq
	l.recs = append(l.recs, r)
}

// Tracer collects execution spans and causal edges when attached via
// Config.Trace. Each node's activity lands in its own lane (see traceLane);
// trace IDs embed the lane index so they stay unique and deterministic
// without cross-shard coordination.
//
// A tracer runs in one of two modes. Buffered (NewTracer) retains every
// record, so the post-run views — Data, Spans, WriteJSON, WriteChromeTrace,
// WriteStream — all work. Streaming (NewStreamTracer) flushes records to a
// SpanSink at window barriers and drops them, bounding memory by the
// densest window instead of the whole run; the in-memory views are then
// empty, and the sink receives exactly the bytes WriteStream would have
// produced from a buffered run of the same job.
type Tracer struct {
	lanes   []*traceLane // indexed by node; lane 0 always exists
	metrics *telemetry.Snapshot

	sink       SpanSink         // non-nil in streaming mode
	sinkErr    error            // first sink failure; recording continues, flushing stops
	batch      []prof.StreamRec // flush scratch, reused across windows
	maxFlushed sim.Time         // latest stamp handed to the sink
}

// NewTracer returns an empty buffered tracer.
func NewTracer() *Tracer {
	tr := &Tracer{}
	tr.Reserve(1)
	return tr
}

// NewStreamTracer returns a tracer that flushes records to sink at window
// barriers instead of retaining them (see Tracer). The runtime drives it
// through FlushWindow and the caller finalizes it with CloseStream.
func NewStreamTracer(sink SpanSink) *Tracer {
	tr := &Tracer{sink: sink}
	tr.Reserve(1)
	return tr
}

// Streaming reports whether the tracer flushes to a sink (and therefore
// cannot serve the in-memory post-run views).
func (tr *Tracer) Streaming() bool { return tr.sink != nil }

// Reserve sizes the tracer for nodes lanes. The runtime calls it before the
// run starts; once concurrent shards are recording, the lane set must not
// grow, so all growth happens here.
func (tr *Tracer) Reserve(nodes int) {
	for len(tr.lanes) < nodes {
		tr.lanes = append(tr.lanes, &traceLane{node: len(tr.lanes), pending: map[int][]uint64{}})
	}
}

// lane returns node's lane, growing the set for direct single-threaded use
// (tests construct tracers without a runtime).
func (tr *Tracer) lane(node int) *traceLane {
	if node < 0 {
		node = 0
	}
	if node >= len(tr.lanes) {
		tr.Reserve(node + 1)
	}
	return tr.lanes[node]
}

// AttachMetrics attaches a run-end metrics snapshot. WriteChromeTrace then
// emits its counter and gauge series as Chrome counter events ("C"), so
// hub counters and link utilization appear alongside the span timeline.
// The runtime attaches the report snapshot automatically when tracing.
func (tr *Tracer) AttachMetrics(snap *telemetry.Snapshot) { tr.metrics = snap }

// laneID allocates a fresh trace ID on node's lane. Lane 0 issues the plain
// counter (so single-node traces keep their historical IDs); other lanes
// tag the counter with the node index in the high bits, keeping IDs unique
// across lanes with no shared state.
func (tr *Tracer) laneID(node int) uint64 {
	l := tr.lane(node)
	l.nextID++
	if node <= 0 {
		return l.nextID
	}
	return uint64(node)<<40 | l.nextID
}

// record appends a span to its node's lane, allocating its ID when unset,
// and returns the ID. The record is stamped with the span's end — the
// instant the recording engine closed it.
func (tr *Tracer) record(s Span) uint64 {
	if s.ID == 0 {
		s.ID = tr.laneID(s.Node)
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	l := tr.lane(s.Node)
	l.push(streamRec{at: s.End, kind: recSpan, span: s})
	return s.ID
}

// msgEdge records a send→recv match on the matching node's lane: from/to
// are command trace IDs, post is when the sender initiated the operation,
// at the match instant (which stamps the record).
func (tr *Tracer) msgEdge(node int, from, to uint64, post, at sim.Time, bytes int64) {
	l := tr.lane(node)
	l.push(streamRec{at: at, kind: recEdge,
		edge: prof.Edge{Kind: "msg", From: from, To: to, At: at, Post: post, Bytes: bytes}})
}

// depEdge records a stream or event ordering edge between span IDs on the
// owning node's lane. at must be the recording engine's current time (every
// call site passes a now-derived stamp).
func (tr *Tracer) depEdge(node int, kind string, from, to uint64, at sim.Time) {
	l := tr.lane(node)
	l.push(streamRec{at: at, kind: recEdge,
		edge: prof.Edge{Kind: kind, From: from, To: to, At: at}})
}

// registerPending notes a command posted by rank (hosted on node) whose
// observing span is not yet known.
func (tr *Tracer) registerPending(node, rank int, id uint64) {
	l := tr.lane(node)
	l.pending[rank] = append(l.pending[rank], id)
}

// pendingMark returns a scope marker for claimSince.
func (tr *Tracer) pendingMark(node, rank int) int { return len(tr.lane(node).pending[rank]) }

// claim binds command cmdID to span spanID; the first claim wins, so an
// inner blocking call keeps its precise span even when an enclosing
// collective sweeps the region afterwards. Commands are only ever claimed
// by the rank that posted them, so the claim lands on that rank's lane.
// Every claim call is logged (stamped with at, the claiming instant) and
// prof.Assemble applies the first-wins rule in record order, which is claim
// order in both the lane-major and the stamp-major walk because a
// command's claims all land on one lane.
func (tr *Tracer) claim(node int, cmdID, spanID uint64, at sim.Time) {
	tr.lane(node).push(streamRec{at: at, kind: recClaim, cmd: cmdID, claimed: spanID})
}

// claimSince claims every command rank posted after mark for spanID — the
// bracket used by collectives, whose internal sends and receives all belong
// to one host span.
func (tr *Tracer) claimSince(node, rank, mark int, spanID uint64, at sim.Time) {
	l := tr.lane(node)
	pend := l.pending[rank]
	if mark < 0 || mark > len(pend) {
		return
	}
	for _, id := range pend[mark:] {
		tr.claim(node, id, spanID, at)
	}
	l.pending[rank] = pend[:mark]
}

// allSpans concatenates the lanes' spans in node order.
func (tr *Tracer) allSpans() []Span {
	var out []Span
	for _, l := range tr.lanes {
		for i := range l.recs {
			if l.recs[i].kind == recSpan {
				out = append(out, l.recs[i].span)
			}
		}
	}
	return out
}

// Spans returns the collected spans sorted by start time.
func (tr *Tracer) Spans() []Span {
	out := tr.allSpans()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of retained spans (0 after streaming flushes).
func (tr *Tracer) Len() int {
	n := 0
	for _, l := range tr.lanes {
		for i := range l.recs {
			if l.recs[i].kind == recSpan {
				n++
			}
		}
	}
	return n
}

// Data assembles the causal trace from every lane's records (see
// prof.Assemble): spans sorted by ID, edges in lane-major order with
// message endpoints resolved to their claiming spans, and makespan clamped
// up to the latest span end.
func (tr *Tracer) Data(makespan sim.Time) prof.Trace {
	return prof.Assemble(tr.records(), makespan)
}

// chromeEvent is one entry of the Chrome trace event format, loadable in
// chrome://tracing and Perfetto: "M" metadata, "X" complete spans, "s"/"f"
// message flows, "C" counters. pid = node; tid = rank for the host lane and
// (rank+1)*1e6+queue for device lanes; timestamps in microseconds of
// virtual time.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTid maps a span to its Chrome thread lane.
func chromeTid(s *Span) int {
	if s.Stream < 0 {
		return s.Rank
	}
	return (s.Rank+1)*1_000_000 + s.Stream
}

// WriteChromeTrace emits the trace in Chrome trace event format: metadata
// naming every process/thread lane, complete events per span (with bytes
// and peer args on data-carrying spans), flow events connecting every
// matched send/recv span pair, and counter events from the attached
// metrics snapshot.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	data := tr.Data(0)
	events := metadataEvents(data.Spans)
	byID := make(map[uint64]*Span, len(data.Spans))
	for i := range data.Spans {
		byID[data.Spans[i].ID] = &data.Spans[i]
	}
	for _, s := range tr.Spans() {
		ev := chromeEvent{
			Name: fmt.Sprintf("%s:%s", s.Kind, s.Name),
			Cat:  s.Kind,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Pid:  s.Node,
			Tid:  chromeTid(&s),
		}
		if s.Bytes > 0 || s.Peer >= 0 {
			ev.Args = map[string]any{}
			if s.Bytes > 0 {
				ev.Args["bytes"] = s.Bytes
			}
			if s.Peer >= 0 {
				ev.Args["peer"] = s.Peer
			}
		}
		events = append(events, ev)
	}
	flow := 0
	for _, e := range data.Edges {
		if e.Kind != "msg" {
			continue
		}
		from, to := byID[e.From], byID[e.To]
		flow++
		fts := float64(to.End) / 1e3
		if sts := float64(from.End) / 1e3; fts < sts {
			fts = sts // flows must not point backwards in trace time
		}
		events = append(events,
			chromeEvent{Name: "msg", Cat: "msg", Ph: "s", ID: flow,
				Ts: float64(from.End) / 1e3, Pid: from.Node, Tid: chromeTid(from)},
			chromeEvent{Name: "msg", Cat: "msg", Ph: "f", BP: "e", ID: flow,
				Ts: fts, Pid: to.Node, Tid: chromeTid(to)})
	}
	events = append(events, tr.counterEvents()...)
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// metadataEvents names every process ("node N") and thread lane ("rank R",
// "rank R q<Q>") appearing in the spans, sorted for determinism.
func metadataEvents(spans []Span) []chromeEvent {
	nodes := map[int]bool{}
	type laneKey struct{ pid, tid int }
	lanes := map[laneKey]string{}
	for i := range spans {
		s := &spans[i]
		nodes[s.Node] = true
		name := fmt.Sprintf("rank %d", s.Rank)
		if s.Stream >= 0 {
			name = fmt.Sprintf("rank %d q%d", s.Rank, s.Stream)
		}
		lanes[laneKey{s.Node, chromeTid(s)}] = name
	}
	pids := make([]int, 0, len(nodes))
	for n := range nodes {
		pids = append(pids, n)
	}
	sort.Ints(pids)
	var out []chromeEvent
	for _, pid := range pids {
		out = append(out, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("node %d", pid)},
		})
	}
	keys := make([]laneKey, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		out = append(out, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": lanes[k]},
		})
	}
	return out
}

// counterEvents converts the attached snapshot's counter and gauge series
// into Chrome counter events at the time of their last mutation, sorted by
// timestamp with a name tie-break so the trace bytes are deterministic
// regardless of snapshot family order. Histograms and the (potentially
// huge) per-resource monitor families are left to the JSON/Prometheus
// exports.
func (tr *Tracer) counterEvents() []chromeEvent {
	if tr.metrics == nil {
		return nil
	}
	var out []chromeEvent
	for _, f := range tr.metrics.Families {
		if f.Kind == "histogram" || strings.HasPrefix(f.Name, "sim_resource_") {
			continue
		}
		for _, s := range f.Series {
			v := float64(s.Value)
			if f.Kind == "gauge" {
				v = s.GaugeValue
			}
			name := f.Name
			if len(s.Labels) > 0 {
				parts := make([]string, 0, len(s.Labels))
				for _, l := range s.Labels {
					parts = append(parts, l.Key+"="+l.Value)
				}
				name += "{" + strings.Join(parts, ",") + "}"
			}
			out = append(out, chromeEvent{
				Name: name,
				Cat:  "metric",
				Ph:   "C",
				Ts:   float64(s.LastNs) / 1e3,
				Args: map[string]any{"value": v},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// span records an interval on the task's host lane when tracing is enabled.
func (t *Task) span(kind, name string, start sim.Time) {
	tr := t.rt.Cfg.Trace
	if tr == nil {
		return
	}
	tr.record(Span{Rank: t.rank, Node: t.pl.Node, Stream: -1, Kind: kind,
		Name: name, Start: start, End: t.proc.Now(), Peer: -1})
}

// traceMark opens a claim scope for a collective (see Tracer.claimSince);
// -1 when tracing is off.
func (t *Task) traceMark() int {
	if tr := t.rt.Cfg.Trace; tr != nil {
		return tr.pendingMark(t.pl.Node, t.rank)
	}
	return -1
}

// mpiSpan records a blocking MPI interval on the host lane and claims the
// listed commands (plus, when mark >= 0, every command posted since mark)
// so that message edges resolve to this span. Returns the span ID (0 when
// tracing is off).
func (t *Task) mpiSpan(name string, start sim.Time, mark, peer int, bytes int64, cmds ...*msg.Cmd) uint64 {
	tr := t.rt.Cfg.Trace
	if tr == nil {
		return 0
	}
	end := t.proc.Now()
	id := tr.record(Span{Rank: t.rank, Node: t.pl.Node, Stream: -1, Kind: "mpi",
		Name: name, Start: start, End: end, Bytes: bytes, Peer: peer})
	for _, c := range cmds {
		if c != nil && c.TraceID != 0 {
			tr.claim(t.pl.Node, c.TraceID, id, end)
		}
	}
	if mark >= 0 {
		tr.claimSince(t.pl.Node, t.rank, mark, id, end)
	}
	return id
}

// traceCmd tags a freshly posted command for causal tracing.
func (t *Task) traceCmd(p *sim.Proc, cmd *msg.Cmd) {
	tr := t.rt.Cfg.Trace
	if tr == nil {
		return
	}
	cmd.TraceID = tr.laneID(t.pl.Node)
	cmd.PostedAt = p.Now()
	tr.registerPending(t.pl.Node, t.rank, cmd.TraceID)
}
