package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"impacc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildGoldenTracer hand-crafts a small but complete trace: host compute,
// a matched send/recv pair (flow events), device-lane kernel and copy with
// a stream edge, a cross-stream wait with an event edge, and an attached
// metrics snapshot (counter events). IDs are allocated in program order
// exactly as the runtime would.
func buildGoldenTracer() *Tracer {
	tr := NewTracer()
	tr.Reserve(2)
	sendCmd := tr.laneID(0) // lane 0 #1: send command posted by rank 0 (node 0)
	recvCmd := tr.laneID(1) // lane 1 #1: recv command posted by rank 1 (node 1)
	tr.registerPending(0, 0, sendCmd)
	tr.registerPending(1, 1, recvCmd)

	tr.record(Span{Rank: 0, Node: 0, Stream: -1, Kind: "compute", Name: "host",
		Start: 0, End: 1000, Peer: -1})
	sendSpan := tr.record(Span{Rank: 0, Node: 0, Stream: -1, Kind: "mpi", Name: "send",
		Start: 1000, End: 3000, Bytes: 4096, Peer: 1})
	tr.claim(0, sendCmd, sendSpan, 3000)
	recvSpan := tr.record(Span{Rank: 1, Node: 1, Stream: -1, Kind: "mpi", Name: "recv",
		Start: 500, End: 3200, Bytes: 4096, Peer: 0})
	tr.claim(1, recvCmd, recvSpan, 3200)
	tr.msgEdge(1, sendCmd, recvCmd, 1000, 2500, 4096)

	k := tr.laneID(0) // kernel enqueued on rank 0 queue 1
	c := tr.laneID(0) // copy chained behind it
	tr.depEdge(0, "stream", k, c, 1200)
	tr.record(Span{ID: k, Rank: 0, Node: 0, Stream: 1, Kind: "kernel", Name: "stencil",
		Start: 1500, End: 2500, Peer: -1})
	tr.record(Span{ID: c, Rank: 0, Node: 0, Stream: 1, Kind: "copy", Name: "DtoH",
		Start: 2500, End: 2600, Bytes: 8192, Peer: -1})
	w := tr.laneID(0) // cross-stream wait on rank 0 queue 2
	tr.depEdge(0, "event", c, w, 1300)
	tr.record(Span{ID: w, Rank: 0, Node: 0, Stream: 2, Kind: "accwait", Name: "qwait",
		Start: 1300, End: 2600, Peer: -1})

	now := int64(2500)
	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return now })
	reg.Counter(telemetry.NewFamily("msg_net_out_total", "", telemetry.KindCounter, "node"), "0").Add(2)
	// Histograms are excluded from counter events.
	reg.Histogram(telemetry.NewFamily("device_kernel_duration_ns", "", telemetry.KindHistogram)).Observe(1000)
	now = 5000
	reg.Gauge(telemetry.NewFamily("link_utilization", "", telemetry.KindGauge)).Set(0.5)
	tr.AttachMetrics(reg.Snapshot(now))
	return tr
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden file %s (run with -update to regenerate)\ngot:  %s\nwant: %s",
			path, buf.Bytes(), want)
	}
}
