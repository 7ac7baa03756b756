package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call the benchmark made around a layer entry point.
type span struct {
	Name string
	// Rep identifies the rep ("workload/mode/n") every span of that rep
	// shares; Mode is empty on workload-level spans.
	Rep, Mode string
	// Parent indexes the enclosing span, or is -1 for a root.
	Parent     int
	Start, End time.Duration // offsets from the recorder's epoch
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced reps run.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span that end closes; it returns the span's index.
func (r *spanRecorder) begin(name, rep, mode string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Rep: rep, Mode: mode, Parent: parent,
		Start: time.Since(r.epoch), End: -1})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r != nil && i >= 0 {
		r.spans[i].End = time.Since(r.epoch)
	}
}

// record adds a finished span timed by the caller.
func (r *spanRecorder) record(name, rep, mode string, parent int, start, end time.Time) {
	if r != nil {
		r.spans = append(r.spans, span{Name: name, Rep: rep, Mode: mode, Parent: parent,
			Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children that overlap each other count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type interval struct{ lo, hi time.Duration }
	for i, s := range spans {
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, iv := range ivs {
			if iv.hi <= reach {
				continue
			}
			covered += iv.hi - max(iv.lo, reach)
			reach = iv.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome-trace JSON: one complete
// ("X") event per span, with the span id, parent, rep and self time in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type args struct {
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		Rep    string  `json:"rep,omitempty"`
		Mode   string  `json:"mode,omitempty"`
		SelfUs float64 `json:"self_us"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: args{ID: i, Parent: s.Parent, Rep: s.Rep, Mode: s.Mode, SelfUs: us(self[i])}}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
