package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"slices"
	"sort"

	"impacc/internal/sim"
)

// The trace stream is the bounded-memory export of a causal trace: one JSON
// object per line, written incrementally while the run executes (core's
// streaming tracer) or in one pass from a buffered tracer. The line order is
// the canonical stream order (at, node, seq) — records merged across node
// lanes by stamp — so the bytes are independent of how the producer batched
// its flushes, and a streamed file compares byte-for-byte against a
// buffered-then-exported one.
//
// Layout:
//
//	{"t":"stream","v":"impacc-trace-stream-v1"}   header, first line
//	{"t":"span","node":N,"seq":S,"at":T,"span":{...}}
//	{"t":"edge","node":N,"seq":S,"at":T,"edge":{...}}
//	{"t":"claim","node":N,"seq":S,"at":T,"cmd":C,"sid":I}
//	{"t":"end","makespan_ns":M}                   trailer, last line
//
// Claims bind a posted command's trace ID to the span that observed it;
// Assemble applies them first-wins in record order, which is claim order
// whether the records arrive stamp-major (this stream) or lane-major (a
// buffered tracer), because all claims of one command land on one node lane.

// StreamVersion tags the stream header; readers reject other versions.
const StreamVersion = "impacc-trace-stream-v1"

// StreamRec is one record line of the trace stream.
type StreamRec struct {
	T    string `json:"t"` // span | edge | claim
	Node int    `json:"node"`
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at"`
	Span *Span  `json:"span,omitempty"` // t == "span"
	Edge *Edge  `json:"edge,omitempty"` // t == "edge"
	Cmd  uint64 `json:"cmd,omitempty"`  // t == "claim": command trace ID
	Sid  uint64 `json:"sid,omitempty"`  // t == "claim": claiming span ID
}

// streamLine is the union shape used to parse any line of the stream.
type streamLine struct {
	StreamRec
	V        string `json:"v,omitempty"`           // t == "stream"
	Makespan int64  `json:"makespan_ns,omitempty"` // t == "end"
}

// ReadStream parses a trace stream and reassembles, through Assemble, the
// same Trace the producing tracer's buffered Data view returns.
func ReadStream(r io.Reader) (Trace, error) { //impacc:allow-unused the reader that impacc-run -trace-stream points users to
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var (
		recs     []StreamRec
		makespan int64
		sawHdr   bool
		sawEnd   bool
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if sawEnd {
			return Trace{}, fmt.Errorf("prof: trace stream line %d: record after the end record", lineNo)
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return Trace{}, fmt.Errorf("prof: trace stream line %d: %w", lineNo, err)
		}
		switch l.T {
		case "stream":
			if l.V != StreamVersion {
				return Trace{}, fmt.Errorf("prof: trace stream version %q (want %q)", l.V, StreamVersion)
			}
			sawHdr = true
		case "end":
			makespan = l.Makespan
			sawEnd = true
		case "span", "edge", "claim":
			if !sawHdr {
				return Trace{}, fmt.Errorf("prof: trace stream line %d: record before header", lineNo)
			}
			if (l.T == "span" && l.Span == nil) || (l.T == "edge" && l.Edge == nil) {
				return Trace{}, fmt.Errorf("prof: trace stream line %d: %s record without its %s", lineNo, l.T, l.T)
			}
			recs = append(recs, l.StreamRec)
		default:
			return Trace{}, fmt.Errorf("prof: trace stream line %d: unknown record type %q", lineNo, l.T)
		}
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("prof: trace stream: %w", err)
	}
	if !sawHdr {
		return Trace{}, fmt.Errorf("prof: trace stream: missing header")
	}
	if !sawEnd {
		return Trace{}, fmt.Errorf("prof: trace stream: truncated (no end record)")
	}
	return Assemble(slices.Values(recs), sim.Time(makespan)), nil
}

// Assemble builds the causal trace from a run's records: spans sorted by
// ID, edges in lane-major record order with message endpoints resolved from
// command IDs to their claiming spans (first claim wins), edges whose
// endpoints have no recorded span dropped, and the makespan clamped up to
// the latest span end. recs may arrive in any order that keeps each lane's
// records in sequence — the buffered tracer yields them lane-major, the
// stream stamp-major — and is ranged over twice: once for spans and claims,
// once for edges.
func Assemble(recs iter.Seq[StreamRec], makespan sim.Time) Trace {
	var spans []Span
	claims := map[uint64]uint64{}
	for r := range recs {
		switch r.T {
		case "span":
			if r.Span != nil {
				spans = append(spans, *r.Span)
			}
		case "claim":
			if _, ok := claims[r.Cmd]; !ok {
				claims[r.Cmd] = r.Sid
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	ids := make(map[uint64]bool, len(spans))
	for i := range spans {
		ids[spans[i].ID] = true
		if spans[i].End > makespan {
			makespan = spans[i].End
		}
	}
	resolve := func(id uint64) uint64 {
		if sp, ok := claims[id]; ok && ids[sp] {
			return sp
		}
		return id
	}
	type laneEdge struct {
		node int
		seq  uint64
		e    Edge
	}
	var raw []laneEdge
	for r := range recs {
		if r.T != "edge" || r.Edge == nil {
			continue
		}
		e := *r.Edge
		if e.Kind == "msg" {
			e.From = resolve(e.From)
			e.To = resolve(e.To)
		}
		if ids[e.From] && ids[e.To] {
			raw = append(raw, laneEdge{r.Node, r.Seq, e})
		}
	}
	sort.Slice(raw, func(i, j int) bool {
		if raw[i].node != raw[j].node {
			return raw[i].node < raw[j].node
		}
		return raw[i].seq < raw[j].seq
	})
	edges := make([]Edge, len(raw))
	for i := range raw {
		edges[i] = raw[i].e
	}
	return Trace{Makespan: makespan, Spans: spans, Edges: edges}
}
