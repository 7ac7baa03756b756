package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"impacc/internal/core"
)

// newTestHTTP fronts a server whose workers the test controls (unlike
// testServer, which always starts them).
func newTestHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	typ  string
	data []byte
}

// parseSSE splits an SSE body into events. The serve writer emits exactly
// "event: T\ndata: D\n\n" per event.
func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(string(body), "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = []byte(strings.TrimPrefix(line, "data: "))
			default:
				t.Fatalf("unparseable SSE line %q", line)
			}
		}
		if ev.typ == "" || ev.data == nil {
			t.Fatalf("incomplete SSE block %q", block)
		}
		out = append(out, ev)
	}
	return out
}

// eventsJob is smallJob with a heartbeat interval short enough that a run
// lasting ~100us of virtual time emits several heartbeats.
func eventsJob() JobSpec {
	spec := smallJob()
	spec.ProgressEvery = "20us"
	return spec
}

// TestEventsReplayToTerminal: after a job completes, /events replays the
// whole lifecycle — queued, running, heartbeats in virtual-time order, then
// the terminal done event — and closes.
func TestEventsReplayToTerminal(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, code := postJob(t, ts, eventsJob(), true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("submit -> %d %+v", code, st)
	}
	body, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/events")
	if code != 200 {
		t.Fatalf("/events -> %d", code)
	}
	evs := parseSSE(t, body)
	if len(evs) < 4 {
		t.Fatalf("got %d events, want at least queued+running+heartbeat+done:\n%s", len(evs), body)
	}
	var states []string
	var beats []core.Heartbeat
	for _, ev := range evs {
		switch ev.typ {
		case "state":
			var s Status
			if err := json.Unmarshal(ev.data, &s); err != nil {
				t.Fatalf("bad state payload %s: %v", ev.data, err)
			}
			states = append(states, s.State)
		case "heartbeat":
			var hb core.Heartbeat
			if err := json.Unmarshal(ev.data, &hb); err != nil {
				t.Fatalf("bad heartbeat payload %s: %v", ev.data, err)
			}
			beats = append(beats, hb)
		default:
			t.Fatalf("unknown event type %q", ev.typ)
		}
	}
	if want := []string{stateQueued, stateRunning, stateDone}; strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("state sequence %v, want %v", states, want)
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats in the feed")
	}
	for i, hb := range beats {
		if hb.Seq != i {
			t.Fatalf("heartbeat %d has seq %d", i, hb.Seq)
		}
		if i > 0 && hb.AtNs <= beats[i-1].AtNs {
			t.Fatalf("heartbeat virtual times not increasing: %d then %d", beats[i-1].AtNs, hb.AtNs)
		}
		if hb.Shards <= 0 || hb.Events == 0 {
			t.Fatalf("heartbeat %d lacks substance: %+v", i, hb)
		}
	}
	if evs[len(evs)-1].typ != "state" {
		t.Fatal("feed did not end with the terminal state event")
	}
}

// TestEventsDeterministicHeartbeats: the heartbeat payload bytes of a job
// replayed at par_sim 8 equal the serial run's — the live feed obeys the
// same determinism contract as the artifacts.
func TestEventsDeterministicHeartbeats(t *testing.T) {
	heartbeats := func(spec JobSpec) []string {
		s, ts := testServer(t, Config{})
		st, code := postJob(t, ts, spec, true)
		if code != 200 || st.State != stateDone {
			t.Fatalf("submit -> %d %+v", code, st)
		}
		body, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/events")
		if code != 200 {
			t.Fatalf("/events -> %d", code)
		}
		var out []string
		for _, ev := range parseSSE(t, body) {
			if ev.typ == "heartbeat" {
				out = append(out, string(ev.data))
			}
		}
		s.Close()
		return out
	}
	serial := heartbeats(eventsJob())
	par := eventsJob()
	par.ParSim = 8
	parallel := heartbeats(par)
	if len(serial) == 0 {
		t.Fatal("no heartbeats")
	}
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Fatalf("heartbeats diverge between serial and par_sim=8:\n%v\nvs\n%v", serial, parallel)
	}
}

// TestEventsFollowCancelMidRun: a follower attached while the job runs sees
// the stream terminate with a cancelled state event when the job is deleted
// mid-run — and the handler goroutine exits (the test would hang otherwise).
func TestEventsFollowCancelMidRun(t *testing.T) {
	big := JobSpec{System: "beacon:2", App: "jacobi", N: 512, Iters: 50, ProgressEvery: "20us"}
	s, ts := testServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, big, false)
	if code != 202 {
		t.Fatalf("submit -> %d", code)
	}

	type result struct {
		evs []sseEvent
		err error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.Key + "/events")
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body) // returns only when the server ends the stream
		if err != nil {
			done <- result{nil, err}
			return
		}
		done <- result{parseSSE(t, body), nil}
	}()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.Key, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.Wait(st.Key)

	r := <-done // the stream MUST end on its own after the terminal event
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.evs) == 0 {
		t.Fatal("empty event stream")
	}
	last := r.evs[len(r.evs)-1]
	if last.typ != "state" {
		t.Fatalf("stream ended with %q, want a terminal state event", last.typ)
	}
	var final Status
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatal(err)
	}
	// The cancel may land before, during, or just after the run; whatever
	// the race outcome, the last event must carry a terminal state.
	if !terminalState(final.State) {
		t.Fatalf("final event state %q is not terminal", final.State)
	}
}

// TestEventsUnknownJob: never-seen keys answer 404, not an empty stream.
func TestEventsUnknownJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, code := getBody(t, ts, "/v1/jobs/deadbeef/events"); code != 404 {
		t.Fatalf("/events for unknown key -> %d, want 404", code)
	}
}

// TestStallInTerminalEvents: a job killed by MaxEvents carries the flight
// recorder's dump in its terminal status — on the status route and in the
// final SSE event — naming the parked ranks.
func TestStallInTerminalEvents(t *testing.T) {
	_, ts := testServer(t, Config{Limits: coreLimitsMaxEvents(60)})
	st, code := postJob(t, ts, eventsJob(), true)
	if code != 200 || st.State != stateFailed {
		t.Fatalf("capped job -> %d %+v, want failed", code, st)
	}
	if st.Stall == nil {
		t.Fatal("failed status has no stall report")
	}
	if st.Stall.Reason != "event-limit" {
		t.Fatalf("stall reason %q, want event-limit", st.Stall.Reason)
	}
	parked := st.Stall.ParkedRanks()
	if len(parked) == 0 {
		t.Fatal("stall report names no parked processes")
	}
	var hasTask bool
	for _, name := range parked {
		if strings.HasPrefix(name, "task") {
			hasTask = true
		}
	}
	if !hasTask {
		t.Fatalf("parked list %v names no task rank", parked)
	}

	body, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/events")
	if code != 200 {
		t.Fatalf("/events -> %d", code)
	}
	evs := parseSSE(t, body)
	var final Status
	if err := json.Unmarshal(evs[len(evs)-1].data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != stateFailed || final.Stall == nil || len(final.Stall.ParkedRanks()) == 0 {
		t.Fatalf("terminal event lacks the stall dump: %s", evs[len(evs)-1].data)
	}
}

// TestRunInfoSurvivesCacheRoundTrip: the report's provenance block is
// populated, matches the job's own content address, and comes back intact
// from the cache on a resubmission.
func TestRunInfoSurvivesCacheRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := smallJob()
	st, code := postJob(t, ts, spec, true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("submit -> %d %+v", code, st)
	}
	first, code := getBody(t, ts, "/v1/jobs/"+st.Key+"/report")
	if code != 200 {
		t.Fatalf("report -> %d", code)
	}
	var rep struct {
		Run core.RunInfo
	}
	if err := json.Unmarshal(first, &rep); err != nil {
		t.Fatal(err)
	}
	comp, err := compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Run.Scheme != core.ConfigHashScheme {
		t.Fatalf("Run.Scheme = %q, want %q", rep.Run.Scheme, core.ConfigHashScheme)
	}
	if rep.Run.Hash != comp.Config.Hash() {
		t.Fatalf("Run.Hash = %q, want the job's own config hash %q", rep.Run.Hash, comp.Config.Hash())
	}
	if rep.Run.System != "Beacon" || rep.Run.Shards != 2 {
		t.Fatalf("Run = %+v, want System Beacon with 2 shards", rep.Run)
	}

	// Cache hit: the same bytes — provenance included — come back.
	st2, code := postJob(t, ts, spec, false)
	if code != 200 || !st2.Cached {
		t.Fatalf("resubmit -> %d %+v, want hit", code, st2)
	}
	second, code := getBody(t, ts, "/v1/jobs/"+st2.Key+"/report")
	if code != 200 || !bytes.Equal(first, second) {
		t.Fatalf("report bytes changed across the cache round-trip (code %d)", code)
	}
}

// TestProgressEverySpec: the interval is validated at submit time but — as
// an observer knob — never part of the content address.
func TestProgressEverySpec(t *testing.T) {
	_, ts := testServer(t, Config{})
	bad := smallJob()
	bad.ProgressEvery = "fast"
	if _, code := postJob(t, ts, bad, false); code != 400 {
		t.Fatalf("bad progress_every -> %d, want 400", code)
	}
	c1, err := compile(smallJob())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compile(eventsJob())
	if err != nil {
		t.Fatal(err)
	}
	if c1.key != c2.key {
		t.Fatal("progress_every changed the content address")
	}
}

// TestListStatusFilter: ?status= narrows the listing to one lifecycle state
// and unknown filter values are 400.
func TestListStatusFilter(t *testing.T) {
	s := New(Config{QueueCap: 4}) // workers stopped: submissions stay queued
	ts := newTestHTTP(t, s)

	doneSpec := smallJob()
	queuedSpec := smallJob()
	queuedSpec.Seed = 99
	if _, code := postJob(t, ts, queuedSpec, false); code != 202 {
		t.Fatalf("queued submit -> %d", code)
	}
	s.Start()
	st, code := postJob(t, ts, doneSpec, true)
	if code != 200 || st.State != stateDone {
		t.Fatalf("done submit -> %d %+v", code, st)
	}
	s.Wait(mustKey(t, queuedSpec))

	var listed []Status
	body, code := getBody(t, ts, "/v1/jobs?status=done")
	if code != 200 {
		t.Fatalf("filter -> %d", code)
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 { // both jobs completed by now
		t.Fatalf("status=done listed %d jobs, want 2: %s", len(listed), body)
	}
	for _, st := range listed {
		if st.State != stateDone {
			t.Fatalf("status=done listed a %q job", st.State)
		}
	}
	body, code = getBody(t, ts, "/v1/jobs?status=queued")
	if code != 200 {
		t.Fatalf("filter -> %d", code)
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 0 {
		t.Fatalf("status=queued listed %d jobs after drain: %s", len(listed), body)
	}
	if _, code := getBody(t, ts, "/v1/jobs?status=bogus"); code != 400 {
		t.Fatalf("bogus filter -> %d, want 400", code)
	}
}

// TestJobAgeGauge: the queue-age gauge exists from the start, reads zero on
// an idle server, and goes non-negative with jobs waiting.
func TestJobAgeGauge(t *testing.T) {
	s := New(Config{QueueCap: 4}) // workers stopped: the job ages in queue
	ts := newTestHTTP(t, s)
	if v := counterValue(t, ts, "serve_job_age_seconds"); v != "0" {
		t.Fatalf("idle serve_job_age_seconds = %s, want 0", v)
	}
	if _, code := postJob(t, ts, smallJob(), false); code != 202 {
		t.Fatal("submit failed")
	}
	v := counterValue(t, ts, "serve_job_age_seconds")
	age, err := strconv.ParseFloat(v, 64)
	if err != nil || age < 0 {
		t.Fatalf("serve_job_age_seconds = %q, want a non-negative float", v)
	}
	s.Start()
	s.Wait(mustKey(t, smallJob()))
	if v := counterValue(t, ts, "serve_job_age_seconds"); v != "0" {
		t.Fatalf("drained serve_job_age_seconds = %s, want 0", v)
	}
}

// mustKey compiles spec and returns its content address.
func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	c, err := compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c.key
}
