package server

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API: the engine's jobs routes
// (jobs.Table.Mount) plus
//
//	GET  /v1/healthz          daemon health           → 200 Health
//	GET  /metrics             Prometheus metrics (when a Registry is set)
//	GET  /metrics.json        the same registry as JSON
//	GET  /debug/pprof/...     net/http/pprof (when EnablePprof is set)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		jobs.WriteJSON(w, http.StatusOK, s.HealthSnapshot())
	})
	if s.cfg.Registry != nil {
		h := obs.Handler(s.cfg.Registry)
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.json", h)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}
