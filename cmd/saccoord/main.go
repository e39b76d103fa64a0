// Command saccoord is the fleet coordinator: it owns a consistent-hash ring
// over result-store cache keys, places each submitted cell on the worker
// that owns its key (so worker-local stores and singleflights stay hot),
// deduplicates identical cells fleet-wide, and steals jobs from workers
// that die, lapse, or leave.
//
// Usage:
//
//	saccoord -addr :8440
//	sacd -addr :8341 -cache-dir /var/lib/sacd -coordinator http://coordhost:8440
//	sacsweep -exp fig8 -remote http://coordhost:8440
//
// The jobs API is the sacd API verbatim — any sacd client can point at a
// coordinator unchanged. Workers enroll themselves with -coordinator; see
// the repro/internal/cluster package for the protocol.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8440", "HTTP listen address (use :0 for an ephemeral port)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "heartbeat cadence advertised to workers")
		lapse     = flag.Duration("lapse", 0, "silence after which a worker is declared dead and its jobs stolen (0 = 3x heartbeat)")
		fidelity  = flag.String("fidelity", "", "fidelity applied to jobs that name none: estimate | exact (default exact)")
		quiet     = flag.Bool("q", false, "suppress per-job log lines")
	)
	flag.Parse()
	if err := run(*addr, *heartbeat, *lapse, *fidelity, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "saccoord:", err)
		os.Exit(1)
	}
}

func run(addr string, heartbeat, lapse time.Duration, fidelity string, quiet bool) error {
	if _, err := backend.Normalize(fidelity); err != nil {
		return err
	}
	cfg := cluster.Config{
		Heartbeat:       heartbeat,
		Lapse:           lapse,
		DefaultFidelity: fidelity,
		Registry:        obs.NewRegistry(),
	}
	if !quiet {
		cfg.Log = os.Stderr
	}
	c := cluster.New(cfg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	// The serving line doubles as the readiness signal: tests and scripts
	// scrape the bound address from it (addr may be ":0").
	fmt.Printf("saccoord: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "saccoord: %v: shutting down\n", sig)
	case err := <-errc:
		return err
	}

	// Close the coordinator first (running jobs are canceled, workers will
	// re-register when a new coordinator comes up), then the HTTP server.
	c.Close()
	if err := hs.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "saccoord: bye")
	return nil
}
