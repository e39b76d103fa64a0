package cluster

import (
	"errors"
	"net/http"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Handler returns the coordinator's HTTP API: the engine's jobs routes
// (jobs.Table.Mount — the sacd jobs API verbatim, so client.Client and
// therefore sacsweep -remote work against a coordinator without knowing it is
// one) plus the fleet-membership protocol the worker Agent speaks:
//
//	POST   /v1/workers                 register a worker         → 200 RegisterResponse
//	POST   /v1/workers/{id}/heartbeat  worker heartbeat          → 204
//	DELETE /v1/workers/{id}            deregister a worker       → 204
//	GET    /v1/fleet                   worker table + counters   → 200 FleetStatus
//	GET    /v1/healthz                 coordinator health        → 200 Health
//	GET    /metrics, /metrics.json     fleet metrics (when a Registry is set)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Mount(mux)
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		jobs.WriteJSON(w, http.StatusOK, c.Fleet())
	})
	mux.HandleFunc("GET /v1/healthz", c.handleHealth)
	if c.cfg.Registry != nil {
		h := obs.Handler(c.cfg.Registry)
		mux.Handle("GET /metrics", h)
		mux.Handle("GET /metrics.json", h)
	}
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info client.WorkerInfo
	if !jobs.DecodeBody(w, r, &info) {
		return
	}
	resp, err := c.Register(info)
	switch {
	case errors.Is(err, ErrClosed):
		jobs.WriteError(w, ErrClosed.Code, "%v", err)
	case err != nil:
		jobs.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		jobs.WriteJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var h client.Health
	if !jobs.DecodeBody(w, r, &h) {
		return
	}
	if !c.Heartbeat(id, h) {
		jobs.WriteError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !c.Deregister(id) {
		jobs.WriteError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth reports the coordinator's own health: healthy with live
// workers, degraded with none (jobs queue up in the wait-for-worker loop
// rather than failing, so an empty fleet is survivable, not fatal).
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	fs := c.Fleet()
	h := client.Health{Status: client.HealthHealthy, Workers: fs.Live, Jobs: fs.Jobs}
	if fs.Live == 0 {
		h.Status = client.HealthDegraded
		h.Reasons = []string{"no live workers"}
	}
	for _, ws := range fs.Workers {
		h.Inflight += ws.Inflight
	}
	jobs.WriteJSON(w, http.StatusOK, h)
}
