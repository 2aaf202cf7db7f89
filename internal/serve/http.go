package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"ubscache/internal/sim"
	"ubscache/internal/workload"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs              submit (202, or 429 saturated / 503 draining)
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel
//	GET    /jobs/{id}/events  SSE progress stream (status/heartbeat/end)
//	POST   /jobs/{id}/suspend park a running job (resumable preemption)
//	POST   /jobs/{id}/resume  requeue a suspended job
//	GET    /jobs/{id}/result  completed result JSON
//	GET    /designs           registered design kinds
//	GET    /workloads         preset workloads by family
//	GET    /metrics           Prometheus service metrics
//	GET    /healthz, /readyz  probes (readyz is 503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /designs", s.handleDesigns)
	mux.HandleFunc("GET /workloads", s.handleWorkloads)
	mux.HandleFunc("GET /metrics", s.metrics.serveProm(s.cfg.Namespace))
	s.health.Register(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	err := dec.Decode(&req)
	if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		err = errors.New("trailing data after the JSON value")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "serve: bad request body: " + err.Error()})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		var sat *SaturatedError
		switch {
		case errors.As(err, &sat):
			// Saturation is the admission-control contract: an immediate,
			// bounded rejection with a retry hint instead of unbounded
			// queueing delay.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(sat)))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "30")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		}
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.ID(), Key: j.Key(), State: j.State(), Priority: j.priority,
	})
}

// retryAfterSeconds renders the hint as whole seconds, rounding up so a
// sub-second hint never becomes "Retry-After: 0".
func retryAfterSeconds(e *SaturatedError) int {
	secs := int((e.RetryAfter + 999_999_999) / 1_000_000_000)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, _, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	j, ok, err := s.Suspend(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusConflict, apiError{Error: "serve: job is not running"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, ok, err := s.Resume(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusConflict, apiError{Error: "serve: job is not suspended"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	serveSSE(w, r, j.Events())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	st, data := j.snapshot()
	if st.State != JobDone {
		writeJSON(w, http.StatusConflict, apiError{Error: "serve: job is " + string(st.State) + ", no result"})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(data)
	w.Write([]byte("\n"))
}

func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Kinds []string `json:"kinds"`
	}{Kinds: sim.DesignKinds()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	fams := workload.Families()
	out := struct {
		Families map[string][]string `json:"families"`
		Order    []string            `json:"order"`
	}{Families: make(map[string][]string, len(fams))}
	for _, f := range fams {
		out.Families[string(f)] = workload.Names(f)
		out.Order = append(out.Order, string(f))
	}
	writeJSON(w, http.StatusOK, out)
}
