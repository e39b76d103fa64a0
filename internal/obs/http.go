package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Mount registers a process's observability routes on mux: GET /metrics, the
// registry's Prometheus text exposition (when r is set; it may be scraped
// while a simulation writes it), and, when pprofOn, the net/http/pprof
// handlers under /debug/pprof/. Profile endpoints expose internal state; keep
// the listen address loopback-only when they are on. sacd, saccoord and Serve
// all mount through here.
func Mount(mux *http.ServeMux, r *Registry, pprofOn bool) {
	if r != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
		})
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// MetricsServer is a running metrics endpoint. Callers shut it down
// cooperatively with Close (or Shutdown for a deadline-bound drain) when
// the process exits.
type MetricsServer struct {
	srv  *http.Server
	addr net.Addr
}

// Addr returns the bound listen address (useful with ":0").
func (m *MetricsServer) Addr() net.Addr { return m.addr }

// Close immediately closes the listener and all active connections.
func (m *MetricsServer) Close() error {
	if m == nil {
		return nil
	}
	return m.srv.Close()
}

// Serve starts an HTTP server on addr (e.g. ":9090") carrying Mount's routes
// for r. It returns once the listener is bound, so scrapes succeed
// immediately. The server carries header/idle timeouts (a half-open scraper
// cannot pin a connection open forever) and runs until the returned
// MetricsServer is closed. The response path is deliberately not
// write-limited: a /debug/pprof/profile?seconds=30 capture outlives any
// reasonable write timeout.
func Serve(addr string, r *Registry, pprofOn bool) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	Mount(mux, r, pprofOn)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{srv: srv, addr: ln.Addr()}, nil
}
