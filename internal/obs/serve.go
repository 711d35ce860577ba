package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// DebugServer serves live diagnostics for a running campaign:
// net/http/pprof under /debug/pprof/, the registry's snapshot at
// /metrics (JSON by default, Prometheus text with ?format=prom), the
// run's live position at /progress, and the event journal as a
// server-sent-event stream at /events.
type DebugServer struct {
	// Addr is the address actually listened on (useful with ":0").
	Addr string
	srv  *http.Server
	lis  net.Listener

	// done closes when the server shuts down, unblocking SSE handlers so
	// Shutdown can drain them.
	done      chan struct{}
	closeOnce sync.Once
}

// Serve starts a debug server on addr in a background goroutine. run may
// be nil (the /progress and /events endpoints then report 404); when it
// carries a Journal, /events streams it live.
func Serve(addr string, reg *Registry, run *Run) (*DebugServer, error) {
	ds := &DebugServer{done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		if run == nil {
			http.Error(w, "no instrumented run", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(run.Progress())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		var j *Journal
		if run != nil {
			j = run.Journal
		}
		if j == nil {
			http.Error(w, "no event journal", http.StatusNotFound)
			return
		}
		ServeSSE(w, r, j, ds.done)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	ds.Addr = lis.Addr().String()
	ds.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ds.lis = lis
	go func() { _ = ds.srv.Serve(lis) }()
	return ds, nil
}

// MetricsHandler serves reg's snapshot: JSON by default, Prometheus text
// exposition with ?format=prom.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			err = reg.WriteProm(w)
		} else {
			w.Header().Set("Content-Type", "application/json")
			err = reg.WriteJSON(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// ServeSSE streams the journal to one subscriber: the backlog first, then
// live events, as `id: <seq>` + `data: <event JSON>` frames. Returns when
// the client disconnects, the journal closes, or done closes (pass nil
// for no external shutdown signal). DebugServer serves its /events
// endpoint through this; the campaign service (internal/service) reuses
// it for per-job event streams.
func ServeSSE(w http.ResponseWriter, r *http.Request, j *Journal, done <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sub, backlog := j.Subscribe(256)
	defer j.Unsubscribe(sub)

	write := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, e := range backlog {
		if !write(e) {
			return
		}
	}
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				return
			}
			if !write(e) {
				return
			}
		case <-r.Context().Done():
			return
		case <-done:
			return
		}
	}
}

// Close shuts the server down gracefully: it stops accepting new
// connections, signals streaming handlers to finish, and waits up to 5
// seconds for in-flight requests to drain before forcing connections
// closed. Safe to call more than once and on a nil server.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = s.srv.Shutdown(ctx)
		if err != nil {
			err = s.srv.Close()
		}
	})
	return err
}
