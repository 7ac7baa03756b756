package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs              submit a JobSpec (?wait=1 blocks until terminal)
//	GET    /v1/jobs              list known jobs (?status= filters by state)
//	GET    /v1/jobs/{key}        job status
//	GET    /v1/jobs/{key}/events       live SSE feed: state changes + heartbeats
//	GET    /v1/jobs/{key}/report       full report, JSON
//	GET    /v1/jobs/{key}/report.txt   human-readable report
//	GET    /v1/jobs/{key}/profile      mpiP-style profile, JSON
//	GET    /v1/jobs/{key}/trace        Chrome trace (view in Perfetto)
//	DELETE /v1/jobs/{key}        cancel and/or invalidate
//	GET    /metrics              Prometheus exposition
//	GET    /healthz              liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{key}/{artifact}", s.handleArtifact)
	mux.HandleFunc("DELETE /v1/jobs/{key}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// writeJSON emits v with a status code. Encoding a Status cannot fail, so
// errors here reduce to connection problems the client already sees.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad job spec: " + err.Error()})
		return
	}
	st, code, err := s.Submit(spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSec))
		}
		writeJSON(w, code, apiError{err.Error()})
		return
	}
	if r.URL.Query().Get("wait") != "" && code == http.StatusAccepted {
		s.Wait(st.Key)
		if done, ok := s.Status(st.Key); ok {
			st, code = done, http.StatusOK
		}
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("status")
	switch state {
	case "", stateQueued, stateRunning, stateDone, stateFailed, stateCancelled:
	default:
		writeJSON(w, http.StatusBadRequest,
			apiError{"unknown status filter (queued, running, done, failed, cancelled)"})
		return
	}
	writeJSON(w, http.StatusOK, s.List(state))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	res, code, err := s.Result(r.PathValue("key"))
	if err != nil {
		writeJSON(w, code, apiError{err.Error()})
		return
	}
	var body []byte
	ctype := "application/json"
	switch r.PathValue("artifact") {
	case "report":
		body = res.ReportJSON
	case "report.txt":
		body, ctype = res.ReportText, "text/plain; charset=utf-8"
	case "profile":
		body = res.ProfileJSON
	case "trace":
		body = res.TraceJSON
	default:
		writeJSON(w, http.StatusNotFound, apiError{"unknown artifact (report, report.txt, profile, trace)"})
		return
	}
	if body == nil {
		writeJSON(w, http.StatusNotFound, apiError{"artifact not produced for this job"})
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	if st == nil {
		// Only a cached result existed; it is gone now.
		writeJSON(w, http.StatusOK, apiError{})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves the Prometheus exposition of the server's own
// registry. Counters are mutated under the server mutex, and a snapshot
// reads the live registry, so the exposition is written under it too, into
// a buffer sent once the mutex is released.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.mu.Lock()
	now := nowNanos()
	s.refreshAgeLocked(now)
	s.reg.Snapshot(now).WritePrometheus(&buf)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}
