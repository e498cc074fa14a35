// Package server implements balsabmd, the synthesis-as-a-service
// daemon: an HTTP/JSON API that accepts Balsa/CH designs, runs them
// through the internal/flow pipeline on a persistent job queue with
// bounded concurrency and context-based cancellation, deduplicates
// requests on canonical design forms (ch.Canonicalize), streams live
// per-stage progress over SSE, and exposes cache/queue/latency
// counters on /metrics.
//
// API (all request/response bodies are the JSON types of internal/api):
//
//	POST   /api/v1/jobs             submit a JobRequest; 202 + JobStatus
//	GET    /api/v1/jobs             list job statuses
//	GET    /api/v1/jobs/{id}        one job's status; ?wait=30s long-polls
//	                                until the job is terminal
//	DELETE /api/v1/jobs/{id}        cancel the job
//	GET    /api/v1/jobs/{id}/result the JobResult (202 while running)
//	GET    /api/v1/jobs/{id}/events live progress stream (SSE)
//	POST   /api/v1/lint             run the chlint analyzer on CH source,
//	                                synchronously; body is a LintRequest
//	POST   /api/v1/bmlint           compile a design's Burst-Mode specs (or
//	                                lint one .bms spec) and answer the
//	                                bmlint audit per spec
//	POST   /api/v1/netlint          synthesize a design (no simulation) and
//	                                run the netlint structural audit on every
//	                                mapped controller plus the merged
//	                                circuit; body is a NetlintRequest
//	POST   /api/v1/hazver           synthesize a design (no simulation) and
//	                                statically verify every controller's
//	                                mapped logic hazard-free on its specified
//	                                bursts; body is a HazverRequest
//	GET    /api/v1/designs          built-in benchmark design names
//	GET    /api/v1/metrics          daemon counters as JSON
//	GET    /metrics                 same counters, Prometheus text format
//	GET    /healthz                 liveness probe
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/designs"
)

// Server is the HTTP front of a job Manager.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// New builds a server (and its manager) from cfg.
func New(cfg Config) *Server {
	s := &Server{mgr: NewManager(cfg), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	Lint.handle(s.mux)
	Bmlint.handle(s.mux)
	Netlint.handle(s.mux)
	Hazver.handle(s.mux)
	s.mux.HandleFunc("GET /api/v1/designs", s.handleDesigns)
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsText)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the underlying job manager (used by the daemon for
// shutdown and by tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Close stops the manager; outstanding jobs are cancelled.
func (s *Server) Close() { s.mgr.Close() }

// writeJSON encodes v through the canonical api encoder.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := api.Encode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// maxBodyBytes caps a request body, far above any design's source: the
// 64 netlists of the benchmark corpus come to 46 KB in all.
const maxBodyBytes = 8 << 20

// decode reads a JSON request body of at most maxBodyBytes into v,
// rejecting unknown fields; on failure it answers itself (413 for an
// over-cap body, 400 otherwise) and reports false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if !decode(w, r, &req) {
		return
	}
	j, err := s.mgr.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.List()
	out := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration: %w", err))
			return
		}
		if d > 5*time.Minute {
			d = 5 * time.Minute
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.mgr.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case api.StateDone:
		writeJSON(w, http.StatusOK, j.Result())
	case api.StateFailed, api.StateCanceled:
		writeJSON(w, http.StatusConflict, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleEvents streams a job's progress as Server-Sent Events: the
// retained history replays first, then live events until the job
// finishes or the client disconnects. Every event is one SSE message
// with the event type in the "event" field and an api.Event JSON body.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(ev api.Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	replay, live, cancel := j.events.subscribe()
	defer cancel()
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				return // job finished; stream complete
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, d := range designs.All() {
		names = append(names, d.Name)
	}
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Metrics())
}

func (s *Server) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(PrometheusText(s.mgr.Metrics())))
}
