package server

import (
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API: the engine's jobs routes
// (jobs.Table.Mount) plus
//
//	GET  /v1/healthz          daemon health           → 200 Health
//	GET  /metrics             Prometheus metrics (when a Registry is set)
//	GET  /debug/pprof/...     net/http/pprof (when EnablePprof is set)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		jobs.WriteJSON(w, http.StatusOK, s.HealthSnapshot())
	})
	obs.Mount(mux, s.cfg.Registry, s.cfg.EnablePprof)
	return mux
}
