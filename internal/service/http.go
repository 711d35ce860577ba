package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fase/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/scans               submit a scan (202; 200 when served from cache)
//	GET    /v1/scans[?tenant=T]    list jobs in submission order
//	GET    /v1/scans/{id}          job status (live progress while running)
//	DELETE /v1/scans/{id}          cancel a queued or running job
//	GET    /v1/scans/{id}/result   archived run manifest (404 until done)
//	GET    /v1/scans/{id}/events   live event journal as SSE
//	GET    /v1/scans/{id}/progress live progress JSON
//	GET    /v1/stats               queue/worker/job counters
//	GET    /metrics                process metrics (JSON; ?format=prom)
//	GET    /healthz                liveness
//
// Admission failures answer 429 with a Retry-After header; malformed
// submissions answer 400. Every error body is {"error": "..."}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scans", s.handleSubmit)
	mux.HandleFunc("GET /v1/scans", s.handleList)
	mux.HandleFunc("GET /v1/scans/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/scans/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/scans/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/scans/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/scans/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", obs.MetricsHandler(obs.Default))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		// Fair admission: tell rejected clients when to retry instead of
		// letting them busy-loop.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, c, err := parseScanRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, herr := s.Submit(req, c)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	status := http.StatusAccepted
	if j.stateNow() == StateDone {
		status = http.StatusOK // served from the run store
	}
	writeJSON(w, status, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs(r.URL.Query().Get("tenant"))
	out := make([]ScanStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"scans": out})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: no scan %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: no scan %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	m := j.result()
	if m == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("service: scan %s is %s, no result", j.ID, j.stateNow()))
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	jr := j.journal()
	if jr == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("service: scan %s has not started", j.ID))
		return
	}
	obs.ServeSSE(w, r, jr, s.done)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	run := j.runNow()
	if run == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("service: scan %s has not started", j.ID))
		return
	}
	writeJSON(w, http.StatusOK, run.Progress())
}
