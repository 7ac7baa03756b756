package core

import (
	"encoding/json"
	"strings"
	"testing"

	"impacc/internal/device"
	"impacc/internal/mpi"
)

func TestTracerCollectsAllSpanKinds(t *testing.T) {
	tr := NewTracer()
	cfg := psgCfg(IMPACC, 2)
	cfg.Trace = tr
	mustRun(t, cfg, func(tk *Task) {
		buf := tk.Malloc(1 << 16)
		tk.Compute(1e6)
		tk.Kernels(device.KernelSpec{Name: "k", FLOPs: 1e8, Kind: device.KindCompute}, -1)
		if tk.Rank() == 0 {
			tk.Send(buf, 1024, mpi.Float64, 1, 0)
		} else {
			tk.Recv(buf, 1024, mpi.Float64, 0, 0)
		}
	})
	kinds := map[string]int{}
	for _, s := range tr.Spans() {
		kinds[s.Kind]++
		if s.End < s.Start {
			t.Fatalf("span with negative duration: %+v", s)
		}
		if s.Rank < 0 || s.Rank > 1 {
			t.Fatalf("span rank out of range: %+v", s)
		}
	}
	for _, want := range []string{"kernel", "mpi", "compute"} {
		if kinds[want] == 0 {
			t.Errorf("no %q spans collected (got %v)", want, kinds)
		}
	}
	// Spans are sorted by start.
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("spans not sorted")
		}
	}
}

func TestTracerJSONOutputs(t *testing.T) {
	tr := NewTracer()
	cfg := psgCfg(IMPACC, 1)
	cfg.Trace = tr
	mustRun(t, cfg, func(tk *Task) {
		tk.Kernels(device.KernelSpec{Name: "k", FLOPs: 1e8, Kind: device.KindCompute}, -1)
	})
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &chrome); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("no chrome events")
	}
	// Metadata events lead; complete ("X") spans must follow and be
	// well-formed.
	var sawMeta, sawSpan bool
	spans := 0
	for _, ev := range chrome.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
			if sawSpan {
				t.Fatalf("metadata event after span events: %v", ev)
			}
		case "X":
			sawSpan = true
			spans++
			if ev["name"] == "" {
				t.Fatalf("chrome event malformed: %v", ev)
			}
		}
	}
	if !sawMeta || !sawSpan {
		t.Fatalf("missing metadata or span events (meta=%v span=%v)", sawMeta, sawSpan)
	}
	if spans != tr.Len() {
		t.Fatalf("chrome trace lost spans: %d vs %d", spans, tr.Len())
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Without a tracer the span hook must be a no-op (no panic, no spans).
	mustRun(t, psgCfg(IMPACC, 1), func(tk *Task) {
		tk.Compute(1e5)
	})
}
