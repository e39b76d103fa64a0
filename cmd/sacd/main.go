// Command sacd is the simulation-as-a-service daemon: it accepts simulation
// jobs over a JSON HTTP API, executes them through the shared parallel
// engine with cross-client deduplication, and persists every result in a
// content-addressed on-disk store so identical cells are never simulated
// twice — not within one daemon life, and not across restarts.
//
// Usage:
//
//	sacd -addr :8341 -cache-dir /var/lib/sacd
//
// API (see the repro/client package for a typed Go client):
//
//	POST /v1/jobs             {"benchmark":"BP","org":"SAC"}  → 202 job status
//	POST /v1/jobs:batch       submit up to 1024 jobs at once  → 202 batch response
//	GET  /v1/jobs:watch       long-poll for terminal statuses → 200 watch response
//	GET  /v1/jobs/{id}        job status (queued/running/done/failed)
//	GET  /v1/jobs/{id}/result finished job's full statistics
//	GET  /v1/healthz          daemon health and queue depth
//	GET  /metrics             Prometheus metrics
//
// Every accepted job is recorded in a durable journal
// (<cache-dir>/journal.wal by default) before the client is acknowledged, so
// a crashed daemon — panic, OOM, kill -9 — re-enqueues exactly its
// accepted-but-unfinished jobs on the next start. Set REPRO_JOURNAL_SYNC=1
// to fsync every journal append (durability across power loss, not just
// process death). SIGTERM or SIGINT drains gracefully: in-flight
// simulations finish, queued jobs stay live in the journal, a clean
// shutdown mark is written, and the daemon exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/client"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8341", "HTTP listen address (use :0 for an ephemeral port)")
		cacheDir    = flag.String("cache-dir", "", "persistent result store directory (shared with sacsweep -cache-dir); empty = in-memory only")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "bound the live bytes of stored results, evicting least recently used; the directory stays under about twice this plus one segment (0 = unbounded)")
		workers     = flag.Int("workers", 0, "max simulations in flight (0 = all cores)")
		queueCap    = flag.Int("queue", 256, "max queued jobs before submissions get 429")
		fidelity    = flag.String("fidelity", "", "fidelity applied to jobs that name none: estimate | exact (default exact)")
		journalPath = flag.String("journal", "", "durable job journal path (default <cache-dir>/journal.wal; none without a cache dir)")
		drainGrace  = flag.Duration("drain-grace", 10*time.Minute, "how long a shutdown signal waits for in-flight jobs")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the API address")
		quiet       = flag.Bool("q", false, "suppress per-job log lines")
		coord       = flag.String("coordinator", "", "saccoord base URL; set to enroll this daemon as a fleet worker")
		advertise   = flag.String("advertise", "", "base URL the coordinator dispatches jobs to (default derived from the bound listen address)")
		workerID    = flag.String("worker-id", "", "stable fleet worker identity; placement hashes it (default host:port of the advertise URL)")
	)
	flag.Parse()
	o := options{
		addr: *addr, cacheDir: *cacheDir, cacheMax: *cacheMax,
		workers: *workers, queueCap: *queueCap,
		fidelity: *fidelity, journalPath: *journalPath, drainGrace: *drainGrace,
		pprofOn: *pprofOn, quiet: *quiet,
		coordinator: *coord, advertise: *advertise, workerID: *workerID,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sacd:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags into run.
type options struct {
	addr, cacheDir        string
	cacheMax              int64
	workers, queueCap     int
	fidelity, journalPath string
	drainGrace            time.Duration
	pprofOn, quiet        bool
	coordinator           string
	advertise, workerID   string
}

func run(o options) error {
	addr, cacheDir, cacheMax := o.addr, o.cacheDir, o.cacheMax
	workers, queueCap := o.workers, o.queueCap
	fidelity, journalPath := o.fidelity, o.journalPath
	drainGrace, pprofOn, quiet := o.drainGrace, o.pprofOn, o.quiet
	if _, err := backend.Normalize(fidelity); err != nil {
		return err
	}
	cfg := server.Config{
		Workers:         workers,
		QueueCap:        queueCap,
		DefaultFidelity: fidelity,
		EnablePprof:     pprofOn,
		JournalSync:     journalSyncEnabled(),
		Registry:        obs.NewRegistry(),
	}
	if !quiet {
		cfg.Log = os.Stderr
	}
	if cacheDir != "" {
		st, err := store.Open(cacheDir, store.Options{MaxBytes: cacheMax, Registry: cfg.Registry})
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
		if journalPath == "" {
			journalPath = filepath.Join(cacheDir, "journal.wal")
		}
	}
	cfg.JournalPath = journalPath

	s := server.New(cfg)
	if n, err := s.Recover(); err != nil {
		fmt.Fprintln(os.Stderr, "sacd:", err)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "sacd: resumed %d jobs from the previous run\n", n)
	}
	s.Start()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	// The serving line doubles as the readiness signal: tests and scripts
	// scrape the bound address from it (addr may be ":0").
	fmt.Printf("sacd: serving on http://%s (%d workers)\n", ln.Addr(), s.Workers())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Fleet enrollment: register with the coordinator once the listener is
	// bound (the advertise URL must already answer dispatches) and heartbeat
	// our health so the coordinator steers placement around degradation.
	var agent *cluster.Agent
	if o.coordinator != "" {
		adv := o.advertise
		if adv == "" {
			adv = advertiseURL(ln.Addr())
		}
		id := o.workerID
		if id == "" {
			id = strings.TrimPrefix(adv, "http://")
		}
		var alog io.Writer
		if !quiet {
			alog = os.Stderr
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: o.coordinator,
			Info:        client.WorkerInfo{ID: id, URL: adv},
			Health:      s.HealthSnapshot,
			Log:         alog,
		})
		if err != nil {
			hs.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "sacd: worker %s enrolling with %s\n", id, o.coordinator)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sacd: %v: draining\n", sig)
	case err := <-errc:
		return err
	}

	// Leave the fleet before draining: the deregistration rebalances the
	// ring immediately, so the coordinator steers new cells elsewhere while
	// our in-flight jobs finish.
	if agent != nil {
		agent.Close()
	}

	// Drain order matters: stop the workers first (in-flight jobs finish,
	// queued jobs stay live in the journal, and a clean shutdown mark is
	// written) and only then close the HTTP server, so status polls on
	// finishing jobs keep answering during the drain. New submissions get
	// 503 the moment the drain starts.
	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		hs.Close()
		return err
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "sacd: drained, bye")
	return nil
}

// advertiseURL derives the URL the coordinator should dial from the bound
// listen address: an unspecified host (":8341", "0.0.0.0", "[::]") becomes
// 127.0.0.1 — right for single-host fleets; multi-host ones pass -advertise.
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// journalSyncEnabled reads the REPRO_JOURNAL_SYNC gate: unset, "0", or
// "off" keep fsync off (appends still survive process death via the OS page
// cache — the crash mode the daemon defends against); anything else fsyncs
// every append for durability across power loss.
func journalSyncEnabled() bool {
	switch os.Getenv("REPRO_JOURNAL_SYNC") {
	case "", "0", "off", "false":
		return false
	}
	return true
}
