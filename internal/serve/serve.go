package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"impacc/internal/core"
	"impacc/internal/sim"
	"impacc/internal/telemetry"
)

// Config tunes a Server. Zero values take the defaults documented per
// field.
type Config struct {
	// Workers bounds concurrent simulations (default 2). Like the bench
	// harness's -j pool, each worker holds one slot for the duration of a
	// leaf run.
	Workers int
	// QueueCap bounds jobs admitted but not yet running (default 16). When
	// the queue is full, submissions are rejected with 429 + Retry-After
	// rather than buffered without bound.
	QueueCap int
	// CacheBytes bounds the artifact cache (default 64 MiB). Least
	// recently used results are evicted first.
	CacheBytes int64
	// Limits caps every job's resources (virtual time, events, task heap).
	// Hitting a cap fails the job deterministically; it never poisons the
	// cache (only successful runs are cached).
	Limits core.Limits
	// RetryAfterSec is the Retry-After hint on 429 responses (default 1).
	RetryAfterSec int
	// ProgressEvery is the default virtual-time heartbeat interval for the
	// /events feeds (default 1ms virtual); a job's progress_every field
	// overrides it. Observer-only: never part of the content address.
	ProgressEvery sim.Dur
	// FlightRing is the per-shard recent-event ring depth armed on every
	// run (default 64), so abnormal ends carry a stall post-mortem.
	FlightRing int
}

// defaultHeartbeatEvery is the virtual-time progress interval attached to
// every run (overridable per job via the progress_every spec field).
// Heartbeat content is a pure function of the simulation, so the interval —
// like tracing — never affects the job's content address or artifacts.
const defaultHeartbeatEvery = sim.Dur(1_000_000) // 1ms virtual

// defaultFlightRing is the per-shard recent-event ring armed on every run,
// so an abnormal end (cancel, limit, causality panic) always yields a stall
// post-mortem in the terminal status.
const defaultFlightRing = 64

// Job lifecycle states.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job tracks one submission through the pipeline. All fields are guarded by
// the server mutex except comp (immutable after creation) and done (closed
// exactly once, under the mutex).
type job struct {
	spec       JobSpec
	comp       *compiled
	state      string
	errMsg     string
	cancelReq  bool
	cancel     func() // non-nil only while running; safe to call under mu
	done       chan struct{}
	enqueuedAt int64 // wall ns, latency telemetry only
	startedAt  int64
	// stall is the flight recorder's post-mortem when the run ended
	// abnormally (cancel, limit, causality panic); nil on clean runs.
	stall *sim.StallReport
	// events is the job's append-only SSE log; eventCh is closed and
	// replaced on every append to wake followers. See events.go.
	events  []event
	eventCh chan struct{}
}

// Status is the wire form of a job's state.
type Status struct {
	Key   string `json:"key"`
	State string `json:"state"`
	// Cached reports that this answer came from the result cache: a
	// submission that hit it, or the status of a job known only by its
	// cached result. A job that ran reads false, even once its result is
	// cached.
	Cached    bool     `json:"cached"`
	Error     string   `json:"error,omitempty"`
	Spec      *JobSpec `json:"spec,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
	// Stall is the flight recorder's dump of the moment an abnormal run
	// stopped: recent events per shard and which processes were parked on
	// what. Present only on failed/cancelled jobs whose runtime got far
	// enough to record it.
	Stall *sim.StallReport `json:"stall,omitempty"`
}

// Server is the simulation job service: a bounded queue feeding a worker
// pool, fronted by single-flight dedup and a content-addressed result
// cache. See DESIGN.md §11 for the pipeline.
type Server struct {
	cfg Config

	mu     sync.Mutex
	reg    *telemetry.Registry
	cache  *lruCache
	jobs   map[string]*job
	queue  chan string
	closed bool
	wg     sync.WaitGroup

	mHits      *telemetry.Counter
	mMisses    *telemetry.Counter
	mEvictions *telemetry.Counter
	mCoalesced *telemetry.Counter
	mRejected  *telemetry.Counter
	mRuns      *telemetry.Counter
	mRunsFail  *telemetry.Counter
	mCancelled *telemetry.Counter
	gQueue     *telemetry.Gauge
	gBytes     *telemetry.Gauge
	gEntries   *telemetry.Gauge
	gAge       *telemetry.Gauge
	hQueue     *telemetry.Histogram
	hRun       *telemetry.Histogram
	hRender    *telemetry.Histogram
}

// New builds a server (workers not yet started; call Start). Metric series
// are pre-created so /metrics exposes zeros before the first job.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = defaultHeartbeatEvery
	}
	if cfg.FlightRing <= 0 {
		cfg.FlightRing = defaultFlightRing
	}
	reg := telemetry.NewRegistry()
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(telemetry.NewFamily(name, help, telemetry.KindCounter))
	}
	gauge := func(name, help string) *telemetry.Gauge {
		return reg.Gauge(telemetry.NewFamily(name, help, telemetry.KindGauge))
	}
	phases := telemetry.NewFamily("serve_phase_latency_ns", "per-phase wall latency", telemetry.KindHistogram, "phase")
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		cache: newLRUCache(cfg.CacheBytes),
		jobs:  map[string]*job{},
		queue: make(chan string, cfg.QueueCap),

		mHits:      counter("serve_cache_hits_total", "submissions answered from the result cache"),
		mMisses:    counter("serve_cache_misses_total", "submissions that scheduled a fresh run"),
		mEvictions: counter("serve_cache_evictions_total", "results evicted by the byte bound"),
		mCoalesced: counter("serve_jobs_coalesced_total", "submissions deduplicated onto an in-flight identical job"),
		mRejected:  counter("serve_admission_rejected_total", "submissions rejected with 429 (queue full)"),
		mRuns:      counter("serve_runs_total", "simulations actually executed"),
		mRunsFail:  counter("serve_runs_failed_total", "executed simulations that ended in error"),
		mCancelled: counter("serve_jobs_cancelled_total", "jobs cancelled before or during execution"),
		gQueue:     gauge("serve_queue_depth", "jobs admitted but not yet running"),
		gAge:       gauge("serve_job_age_seconds", "age of the oldest queued or running job (0 when idle)"),
		gBytes:     gauge("serve_cache_bytes", "bytes held by the result cache"),
		gEntries:   gauge("serve_cache_entries", "results held by the cache"),
		hQueue:     reg.Histogram(phases, "queue"),
		hRun:       reg.Histogram(phases, "run"),
		hRender:    reg.Histogram(phases, "render"),
	}
	s.cache.onEvict = func(string, *Result) { s.mEvictions.Inc() }
	return s
}

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for key := range s.queue {
				s.runJob(key)
			}
		}()
	}
}

// Close stops admissions, cancels queued and running jobs, and waits for
// the workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.state == stateQueued || j.state == stateRunning {
			j.cancelReq = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit admits spec: a cache hit returns immediately (Status.State done,
// Cached true), an identical in-flight job is coalesced, otherwise the job
// is queued. The int is the suggested HTTP status: 200 hit, 202 admitted or
// coalesced, 400 bad spec, 429 queue full, 503 closed.
func (s *Server) Submit(spec JobSpec) (*Status, int, error) {
	comp, err := compile(spec)
	if err != nil {
		return nil, 400, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := comp.key
	if s.cache.get(key) != nil {
		s.mHits.Inc()
		st := s.statusLocked(key)
		st.Cached = true
		return st, 200, nil
	}
	if j := s.jobs[key]; j != nil && (j.state == stateQueued || j.state == stateRunning) {
		s.mCoalesced.Inc()
		return s.statusLocked(key), 202, nil
	}
	if s.closed {
		return nil, 503, errors.New("serve: server is shutting down")
	}
	// New key, or a failed/cancelled/evicted one being resubmitted: either
	// way the run starts fresh.
	j := &job{spec: spec, comp: comp, state: stateQueued,
		done: make(chan struct{}), eventCh: make(chan struct{}), enqueuedAt: nowNanos()}
	select {
	case s.queue <- key:
	default:
		s.mRejected.Inc()
		return nil, 429, fmt.Errorf("serve: admission queue full (%d waiting)", cap(s.queue))
	}
	s.jobs[key] = j
	s.mMisses.Inc()
	s.gQueue.Set(float64(len(s.queue)))
	st := s.statusLocked(key)
	s.appendEventLocked(j, "state", st)
	return st, 202, nil
}

// Wait blocks until the job leaves the queue/run pipeline (done, failed, or
// cancelled). Unknown keys return immediately.
func (s *Server) Wait(key string) {
	s.mu.Lock()
	j := s.jobs[key]
	var ch chan struct{}
	if j != nil && j.state != stateDone && j.state != stateFailed && j.state != stateCancelled {
		ch = j.done
	}
	s.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// Status reports one job; ok is false for never-seen keys.
func (s *Server) Status(key string) (*Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[key] == nil && s.cache.get(key) == nil {
		return nil, false
	}
	return s.statusLocked(key), true
}

// List reports every known job, sorted by key (deterministic output). A
// non-empty state filters to jobs in that lifecycle state.
func (s *Server) List(state string) []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.jobs))
	for k := range s.jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Status, 0, len(keys))
	for _, k := range keys {
		st := s.statusLocked(k)
		if state != "" && st.State != state {
			continue
		}
		out = append(out, st)
	}
	return out
}

// Result returns a done job's artifacts. The int is the suggested HTTP
// status on failure: 404 unknown or not finished, 410 finished but evicted.
func (s *Server) Result(key string) (*Result, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res := s.cache.get(key); res != nil {
		return res, 200, nil
	}
	j := s.jobs[key]
	switch {
	case j == nil:
		return nil, 404, fmt.Errorf("serve: unknown job %s", key)
	case j.state == stateDone:
		return nil, 410, fmt.Errorf("serve: results for %s were evicted; resubmit to regenerate", key)
	default:
		return nil, 404, fmt.Errorf("serve: job %s is %s; no results yet", key, j.state)
	}
}

// Cancel stops a queued or running job and invalidates any cached result
// for the key. Reports whether the key was known.
func (s *Server) Cancel(key string) (*Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[key]
	removed := s.cache.remove(key)
	if removed {
		s.gBytes.Set(float64(s.cache.bytes()))
		s.gEntries.Set(float64(s.cache.len()))
	}
	if j == nil {
		return nil, removed
	}
	if j.state == stateQueued || j.state == stateRunning {
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(key), true
}

// statusLocked renders a job's state; the caller holds mu. A key present
// only in the cache (job record cancelled away) synthesizes a done status,
// answered from the cache.
func (s *Server) statusLocked(key string) *Status {
	st := &Status{Key: key}
	cached := s.cache.entries[key] != nil // no recency update for a status peek
	j := s.jobs[key]
	if j == nil {
		st.State = stateDone
		st.Cached = cached
	} else {
		st.State = j.state
		st.Error = j.errMsg
		st.Spec = &j.spec
		st.Stall = j.stall
	}
	if cached {
		res := s.cache.entries[key].res
		st.Artifacts = []string{
			"/v1/jobs/" + key + "/report",
			"/v1/jobs/" + key + "/report.txt",
			"/v1/jobs/" + key + "/trace",
		}
		if res.ProfileJSON != nil {
			st.Artifacts = append(st.Artifacts, "/v1/jobs/"+key+"/profile")
		}
	}
	return st
}

// runJob executes one dequeued job on the calling worker.
func (s *Server) runJob(key string) {
	s.mu.Lock()
	j := s.jobs[key]
	if j == nil || j.state != stateQueued {
		s.mu.Unlock()
		return
	}
	s.gQueue.Set(float64(len(s.queue)))
	if j.cancelReq || s.closed {
		s.finishLocked(j, stateCancelled, "cancelled before start", nil)
		s.mu.Unlock()
		return
	}
	j.state = stateRunning
	j.startedAt = nowNanos()
	s.hQueue.Observe(j.startedAt - j.enqueuedAt)
	s.appendEventLocked(j, "state", s.statusLocked(key))
	cfg := j.comp.Config
	cfg.Limits = s.cfg.Limits
	cfg.Trace = core.NewTracer() // fresh observer per run; never shared
	every := j.comp.ProgressEvery
	if every <= 0 {
		every = s.cfg.ProgressEvery
	}
	cfg.Progress = &core.Progress{Every: every, Emit: func(hb core.Heartbeat) {
		// Runs between windows on the simulation's coordinator goroutine;
		// the worker holds no locks during Execute, so taking mu is safe.
		s.mu.Lock()
		s.appendEventLocked(j, "heartbeat", hb)
		s.mu.Unlock()
	}}
	cfg.FlightRing = s.cfg.FlightRing
	prog := j.comp.Program
	s.mu.Unlock()

	rt, err := core.NewRuntime(cfg)
	if err != nil {
		s.mu.Lock()
		s.mRuns.Inc()
		s.mRunsFail.Inc()
		s.finishLocked(j, stateFailed, err.Error(), nil)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	if j.cancelReq {
		s.finishLocked(j, stateCancelled, "cancelled before start", nil)
		s.mu.Unlock()
		return
	}
	j.cancel = rt.Cancel
	s.mRuns.Inc()
	s.mu.Unlock()

	rep, runErr := rt.Execute(prog)

	renderStart := nowNanos()
	var res *Result
	var renderErr error
	if runErr == nil {
		res, renderErr = render(rep, cfg.Trace)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.stall = rt.Stall() // nil unless the run ended abnormally
	s.hRun.Observe(renderStart - j.startedAt)
	s.hRender.Observe(nowNanos() - renderStart)
	var ce *sim.CancelError
	switch {
	case errors.As(runErr, &ce):
		s.finishLocked(j, stateCancelled, runErr.Error(), nil)
	case runErr != nil:
		s.mRunsFail.Inc()
		s.finishLocked(j, stateFailed, runErr.Error(), nil)
	case renderErr != nil:
		s.mRunsFail.Inc()
		s.finishLocked(j, stateFailed, renderErr.Error(), nil)
	default:
		s.finishLocked(j, stateDone, "", res)
	}
}

// finishLocked moves a job to a terminal state, caches successful results,
// and releases waiters. The caller holds mu.
func (s *Server) finishLocked(j *job, state, errMsg string, res *Result) {
	j.state = state
	j.errMsg = errMsg
	if state == stateCancelled {
		s.mCancelled.Inc()
	}
	if res != nil {
		s.cache.put(j.comp.key, res)
		s.gBytes.Set(float64(s.cache.bytes()))
		s.gEntries.Set(float64(s.cache.len()))
	}
	close(j.done)
	// The terminal event is appended after the state settles so followers
	// that observe it under mu know the log is complete (see handleEvents).
	s.appendEventLocked(j, "state", s.statusLocked(j.comp.key))
}

// refreshAgeLocked recomputes the oldest-live-job age gauge, the signal
// that distinguishes a busy-but-moving server from a stuck one. The caller
// holds mu.
func (s *Server) refreshAgeLocked(now int64) {
	oldest := int64(0)
	for _, j := range s.jobs {
		if j.state == stateQueued || j.state == stateRunning {
			if age := now - j.enqueuedAt; age > oldest {
				oldest = age
			}
		}
	}
	s.gAge.Set(float64(oldest) / 1e9)
}

// render serializes a run's artifacts exactly once. Every byte served for
// this job, now or from the cache later, comes from these buffers.
func render(rep *core.Report, tr *core.Tracer) (*Result, error) {
	res := &Result{}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	res.ReportJSON = append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	rep.Print(&buf)
	res.ReportText = append([]byte(nil), buf.Bytes()...)

	if rep.Prof != nil {
		buf.Reset()
		if err := rep.Prof.WriteJSON(&buf); err != nil {
			return nil, err
		}
		res.ProfileJSON = append([]byte(nil), buf.Bytes()...)
	}

	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	res.TraceJSON = append([]byte(nil), buf.Bytes()...)
	return res, nil
}
