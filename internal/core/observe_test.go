package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"impacc/internal/device"
	"impacc/internal/fault"
	"impacc/internal/mpi"
	"impacc/internal/prof"
	"impacc/internal/sim"
	"impacc/internal/topo"
)

// observeChaosSpec is the fault mix the observability matrix runs under —
// the same surface coverage as the parallel byte-identity matrix.
const observeChaosSpec = "7:degrade=*:4,rdmaflap=1:2ms:500us,straggle=0:1.5"

// heartbeatBytes runs cfg with a 20us progress beat and returns the JSONL
// heartbeat feed. The interval is deliberately fine: the small test programs
// elapse a few hundred microseconds of virtual time, so a coarse interval
// would produce an empty (vacuously identical) feed.
func heartbeatBytes(t *testing.T, cfg Config, prog Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.Progress = &Progress{Every: sim.Dur(20_000), Emit: NewHeartbeatWriter(&buf)}
	mustRun(t, cfg, prog)
	return buf.Bytes()
}

// TestHeartbeatByteIdentity: the progress feed is a pure function of the
// configuration — byte-identical across -par-sim {1,2,8}, healthy and
// chaotic. Beats ride the shard group's window barriers, so this is the
// determinism proof for the live snapshot path.
func TestHeartbeatByteIdentity(t *testing.T) {
	spec, err := fault.ParseSpec(observeChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, chaos := range []*fault.Spec{nil, spec} {
		label := "healthy"
		if chaos != nil {
			label = "chaotic"
		}
		t.Run(label, func(t *testing.T) {
			cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true,
				JitterPct: 1, Seed: 2016, Chaos: chaos}
			base := heartbeatBytes(t, cfg, chaosProgram(t))
			if len(base) == 0 {
				t.Fatal("no heartbeats emitted; interval too coarse for the workload")
			}
			var hb Heartbeat
			first := base[:bytes.IndexByte(base, '\n')+1]
			if err := json.Unmarshal(first, &hb); err != nil {
				t.Fatalf("first heartbeat is not valid JSON: %v", err)
			}
			if hb.Seq != 0 || hb.Shards != 2 || hb.Events == 0 {
				t.Fatalf("first heartbeat = %+v, want seq 0, 2 shards, events > 0", hb)
			}
			for _, workers := range []int{2, 8} {
				cfg.Parallel = workers
				got := heartbeatBytes(t, cfg, chaosProgram(t))
				if !bytes.Equal(got, base) {
					t.Errorf("par-sim %d: heartbeat feed differs from serial (%d vs %d bytes)",
						workers, len(got), len(base))
				}
			}
		})
	}
}

// streamedTrace runs cfg with a streaming tracer and returns the stream
// bytes; bufferedStream runs the same cfg with the buffered tracer and
// exports it through WriteStream.
func streamedTrace(t *testing.T, cfg Config, prog Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = NewStreamTracer(NewStreamWriter(&buf))
	rep := mustRun(t, cfg, prog)
	if err := cfg.Trace.CloseStream(sim.Time(rep.Elapsed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func bufferedStream(t *testing.T, cfg Config, prog Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = NewTracer()
	rep := mustRun(t, cfg, prog)
	if err := cfg.Trace.WriteStream(&buf, sim.Time(rep.Elapsed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedTraceByteIdentity: the incrementally flushed trace stream is
// byte-identical to the buffered tracer's WriteStream export, for serial and
// 8-worker runs, healthy and chaotic — the window fences flush exactly the
// final prefix, never reordering or dropping a record.
func TestStreamedTraceByteIdentity(t *testing.T) {
	spec, err := fault.ParseSpec(observeChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, chaos := range []*fault.Spec{nil, spec} {
		label := "healthy"
		if chaos != nil {
			label = "chaotic"
		}
		t.Run(label, func(t *testing.T) {
			cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true,
				JitterPct: 1, Seed: 2016, Chaos: chaos}
			want := bufferedStream(t, cfg, chaosProgram(t))
			if len(want) == 0 {
				t.Fatal("buffered stream export is empty")
			}
			for _, workers := range []int{0, 8} {
				cfg.Parallel = workers
				got := streamedTrace(t, cfg, chaosProgram(t))
				if !bytes.Equal(got, want) {
					t.Errorf("par-sim %d: streamed trace differs from buffered export (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// TestStreamRoundTrip: prof.ReadStream reassembles a written stream into the
// same trace the buffered tracer holds — span for span, edge for edge.
func TestStreamRoundTrip(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true,
		JitterPct: 1, Seed: 2016}
	cfg.Trace = NewTracer()
	rep := mustRun(t, cfg, chaosProgram(t))
	want := cfg.Trace.Data(sim.Time(rep.Elapsed))

	var buf bytes.Buffer
	if err := cfg.Trace.WriteStream(&buf, sim.Time(rep.Elapsed)); err != nil {
		t.Fatal(err)
	}
	got, err := prof.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("makespan = %d, want %d", got.Makespan, want.Makespan)
	}
	if len(got.Spans) != len(want.Spans) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("round trip: %d spans / %d edges, want %d / %d",
			len(got.Spans), len(got.Edges), len(want.Spans), len(want.Edges))
	}
	// The profiles built from both traces must agree exactly — the analysis
	// consumes everything the stream carries.
	a, b := prof.Analyze(want, prof.DefaultTopSites), prof.Analyze(got, prof.DefaultTopSites)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Error("profile analyzed from the stream differs from the buffered profile")
	}
}

// TestObserversExcludedFromHash: Progress and FlightRing change how a run is
// observed, never what it simulates — like Trace and Parallel they must not
// perturb the canonical encoding or the content address.
func TestObserversExcludedFromHash(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Seed: 2016, JitterPct: 1}
	h0, s0 := cfg.Hash(), cfg.CanonicalString()

	cfg.Progress = &Progress{Every: sim.Dur(20_000), Emit: func(Heartbeat) {}}
	cfg.FlightRing = 64
	if cfg.Hash() != h0 {
		t.Fatal("Progress/FlightRing changed the config hash")
	}
	if cfg.CanonicalString() != s0 {
		t.Fatalf("Progress/FlightRing changed the canonical encoding:\n%s", cfg.CanonicalString())
	}
}

// TestObserversDoNotPerturbRun: attaching a progress observer or a streaming
// tracer leaves the report byte-identical to an unobserved run.
func TestObserversDoNotPerturbRun(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true,
		JitterPct: 1, Seed: 2016}
	bare, err := json.Marshal(mustRun(t, cfg, chaosProgram(t)))
	if err != nil {
		t.Fatal(err)
	}

	obs := cfg
	obs.Progress = &Progress{Every: sim.Dur(20_000), Emit: func(Heartbeat) {}}
	obs.FlightRing = 64
	obs.Trace = NewStreamTracer(NewStreamWriter(&bytes.Buffer{}))
	rep := mustRun(t, obs, chaosProgram(t))
	if err := obs.Trace.CloseStream(sim.Time(rep.Elapsed)); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bare) {
		t.Errorf("observed report differs from bare report:\n got: %s\nwant: %s", got, bare)
	}
}

// TestStallOnEventLimit: a run killed by the event budget with the flight
// recorder armed yields a StallReport naming the parked ranks — the
// acceptance shape of stall.json.
func TestStallOnEventLimit(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Backed: true, MaxTasks: 4, FlightRing: 32}
	cfg.Limits.MaxEvents = 2000
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := rt.Execute(longProg(1000))
	var le *sim.LimitError
	if !errors.As(runErr, &le) || le.Resource != "events" {
		t.Fatalf("Execute = %v, want *sim.LimitError{events}", runErr)
	}
	st := rt.Stall()
	if st == nil {
		t.Fatal("Stall() = nil after an armed event-limit halt")
	}
	if st.Reason != "event-limit" || st.Events == 0 {
		t.Fatalf("stall = {reason %q, events %d}, want event-limit with events > 0",
			st.Reason, st.Events)
	}
	ranks := st.ParkedRanks()
	if len(ranks) == 0 {
		t.Fatal("stall report names no parked ranks")
	}
	task := false
	for _, r := range ranks {
		if strings.HasPrefix(r, "task") {
			task = true
		}
	}
	if !task {
		t.Errorf("parked ranks %v name no task", ranks)
	}
	recent := 0
	for _, sh := range st.Shards {
		recent += len(sh.Recent)
	}
	if recent == 0 {
		t.Error("flight rings captured no recent events")
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !json.Valid(buf.Bytes()) {
		t.Fatalf("stall.json invalid (%d bytes)", buf.Len())
	}
}

// TestStallClean: a clean run leaves no stall report even when armed.
func TestStallClean(t *testing.T) {
	cfg := Config{System: topo.Beacon(2), Mode: IMPACC, Backed: true,
		JitterPct: 1, Seed: 2016, FlightRing: 16}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Execute(chaosProgram(t)); err != nil {
		t.Fatal(err)
	}
	if rt.Stall() != nil {
		t.Fatal("Stall() non-nil after a clean run")
	}
}

// TestStallStreamExitOrder: a rank that leaves four idle activity queues
// behind while another rank deadlocks must produce the same stall dump on
// every run. The finished task closes its streams, and each close wakes a
// stream process to exit; the order of those wake-ups is in the dump.
func TestStallStreamExitOrder(t *testing.T) {
	prog := func(tk *Task) {
		buf := tk.Malloc(8)
		if tk.Rank() == 1 {
			tk.Recv(buf, 1, mpi.Float64, 0, 0) // never sent
			return
		}
		for q := 1; q <= 4; q++ {
			tk.Kernels(device.KernelSpec{Name: "k", FLOPs: 1e6, Kind: device.KindCompute}, q)
		}
		tk.ACCWaitAll()
	}
	var first []byte
	for i := 0; i < 20; i++ {
		rt, err := NewRuntime(Config{System: topo.PSG(), MaxTasks: 2, FlightRing: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Execute(prog); err == nil {
			t.Fatal("Execute succeeded; want a deadlock")
		}
		st := rt.Stall()
		if st == nil {
			t.Fatal("Stall() = nil after a deadlock")
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d stall dump differs from run 0:\n got: %s\nwant: %s", i, buf.Bytes(), first)
		}
	}
}
