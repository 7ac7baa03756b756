package core

import (
	"bufio"
	"encoding/json"
	"io"
	"iter"
	"math"
	"sort"

	"impacc/internal/prof"
	"impacc/internal/sim"
)

// SpanSink receives the trace stream of a run incrementally. Emit is called
// with batches already in canonical stream order — consecutive calls carry
// non-overlapping, increasing stamp ranges, so a sink may simply concatenate
// them. The records point into the tracer's memory and are valid only during
// the call; a sink that keeps one must copy it. Close finalizes the stream
// with the run's makespan. Both are called
// from the coordinating goroutine only (between simulation windows and after
// the run), never concurrently.
type SpanSink interface {
	Emit(recs []prof.StreamRec) error
	Close(makespan sim.Time) error
}

// streamWriter is the JSONL SpanSink (see prof's stream format): a header
// line, one line per record, and an end line carrying the makespan. Output
// is buffered; errors stick and resurface on every later call.
type streamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewStreamWriter returns a SpanSink writing the JSONL trace stream to w.
// The header is written immediately; the caller still owns w and closes it
// after Close.
func NewStreamWriter(w io.Writer) SpanSink {
	bw := bufio.NewWriter(w)
	sw := &streamWriter{bw: bw, enc: json.NewEncoder(bw)}
	sw.err = sw.enc.Encode(struct {
		T string `json:"t"`
		V string `json:"v"`
	}{"stream", prof.StreamVersion})
	return sw
}

func (sw *streamWriter) Emit(recs []prof.StreamRec) error {
	if sw.err != nil {
		return sw.err
	}
	for i := range recs {
		if sw.err = sw.enc.Encode(&recs[i]); sw.err != nil {
			return sw.err
		}
	}
	return nil
}

func (sw *streamWriter) Close(makespan sim.Time) error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.enc.Encode(struct {
		T        string `json:"t"`
		Makespan int64  `json:"makespan_ns"`
	}{"end", int64(makespan)})
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	return sw.err
}

// wireRec gives one lane record its wire form, which points into r.
func wireRec(node int, r *streamRec) prof.StreamRec {
	w := prof.StreamRec{Node: node, Seq: r.seq, At: int64(r.at)}
	switch r.kind {
	case recSpan:
		w.T = "span"
		w.Span = &r.span
	case recEdge:
		w.T = "edge"
		w.Edge = &r.edge
	case recClaim:
		w.T = "claim"
		w.Cmd = r.cmd
		w.Sid = r.claimed
	}
	return w
}

// records yields every retained record in wire form, lane-major: each
// lane's records in sequence, lanes in node order. The wire records point
// into the lanes, so they stay valid only until the lanes next change.
func (tr *Tracer) records() iter.Seq[prof.StreamRec] {
	return func(yield func(prof.StreamRec) bool) {
		for _, l := range tr.lanes {
			for i := range l.recs {
				if !yield(wireRec(l.node, &l.recs[i])) {
					return
				}
			}
		}
	}
}

// sortStream orders wire records by the canonical stream order
// (at, node, seq) — a total order, since (node, seq) is unique.
func sortStream(recs []prof.StreamRec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].At != recs[j].At {
			return recs[i].At < recs[j].At
		}
		if recs[i].Node != recs[j].Node {
			return recs[i].Node < recs[j].Node
		}
		return recs[i].Seq < recs[j].Seq
	})
}

// FlushWindow emits every retained record stamped strictly before fence and
// drops it from memory. The runtime calls it at window barriers, where the
// fence guarantee (every shard past the fence's events, every future record
// stamped at or after it) makes the flushed prefix final: concatenating the
// per-window batches reproduces the global stamp-sorted stream byte for
// byte. No-op on buffered tracers and after a sink error.
func (tr *Tracer) FlushWindow(fence sim.Time) {
	if tr.sink == nil || tr.sinkErr != nil {
		return
	}
	tr.batch = tr.batch[:0]
	for _, l := range tr.lanes {
		for i := 0; i < len(l.recs) && l.recs[i].at < fence; i++ {
			tr.batch = append(tr.batch, wireRec(l.node, &l.recs[i]))
		}
	}
	if len(tr.batch) == 0 {
		return
	}
	sortStream(tr.batch)
	if last := sim.Time(tr.batch[len(tr.batch)-1].At); last > tr.maxFlushed {
		tr.maxFlushed = last
	}
	tr.sinkErr = tr.sink.Emit(tr.batch)
	// The batch points into the lanes, so they are compacted only now.
	clear(tr.batch)
	for _, l := range tr.lanes {
		n := 0
		for n < len(l.recs) && l.recs[n].at < fence {
			n++
		}
		if n == 0 {
			continue
		}
		rest := copy(l.recs, l.recs[n:])
		clear(l.recs[rest:]) // release span/edge strings held by the flushed prefix
		l.recs = l.recs[:rest]
	}
}

// CloseStream flushes everything still retained and finalizes the sink with
// the run's makespan, clamped up to the latest flushed stamp. Returns the
// first sink error, if any. No-op on buffered tracers.
func (tr *Tracer) CloseStream(makespan sim.Time) error {
	if tr.sink == nil {
		return nil
	}
	tr.FlushWindow(sim.Time(math.MaxInt64))
	if tr.sinkErr != nil {
		return tr.sinkErr
	}
	if makespan < tr.maxFlushed {
		makespan = tr.maxFlushed
	}
	tr.sinkErr = tr.sink.Close(makespan)
	return tr.sinkErr
}
