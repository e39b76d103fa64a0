package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/client"
)

// AgentConfig configures a worker-side fleet Agent.
type AgentConfig struct {
	// Coordinator is the saccoord base URL.
	Coordinator string
	// Info identifies this worker: a stable ID (ring placement hashes it)
	// and the URL the coordinator dispatches jobs to.
	Info client.WorkerInfo
	// Health snapshots the worker's current health for each heartbeat; nil
	// reports plain healthy. The coordinator steers placement off it:
	// degraded workers are fallback-only, draining/unhealthy ones get
	// nothing new.
	Health func() client.Health
	// Log receives agent lifecycle lines; nil discards.
	Log io.Writer
}

// Agent keeps one sacd worker enrolled in a fleet: it registers with the
// coordinator (retrying until it appears), heartbeats at the cadence the
// coordinator advertises, re-registers when the coordinator forgets it (a
// coordinator restart answers heartbeats with 404), and deregisters on
// Close so a graceful shutdown triggers an immediate rebalance instead of
// a lapse timeout.
type Agent struct {
	cfg AgentConfig
	cl  *client.Client

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartAgent starts the registration/heartbeat loop and returns immediately;
// a coordinator that is down at start is retried forever in the background.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: agent needs a coordinator URL")
	}
	if cfg.Info.ID == "" || cfg.Info.URL == "" {
		return nil, fmt.Errorf("cluster: agent needs a worker id and url")
	}
	a := &Agent{
		cfg:  cfg,
		cl:   client.New(cfg.Coordinator, client.WithRetries(1), client.WithBackoff(100*time.Millisecond, time.Second)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run()
	return a, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Log != nil {
		fmt.Fprintf(a.cfg.Log, "agent: "+format+"\n", args...)
	}
}

// run is the agent loop: register (with backoff), then heartbeat at the
// advertised cadence until stopped, dropping back to registration whenever
// the coordinator stops recognizing us.
func (a *Agent) run() {
	defer close(a.done)
	const retryFloor = 250 * time.Millisecond
	for {
		beat, ok := a.register(retryFloor)
		if !ok {
			return // stopped while registering
		}
		if a.heartbeatUntilLost(beat) {
			return // stopped while beating
		}
		// Lost: the coordinator answered 404 (restart wiped its table) or
		// kept erroring. Loop back into registration.
	}
}

// register loops until registration succeeds or the agent is stopped,
// returning the advertised heartbeat cadence.
func (a *Agent) register(retry time.Duration) (time.Duration, bool) {
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := a.cl.Register(ctx, a.cfg.Info)
		cancel()
		if err == nil {
			beat := time.Duration(resp.HeartbeatMS) * time.Millisecond
			if beat <= 0 {
				beat = 2 * time.Second
			}
			a.logf("registered %s with %s (heartbeat %s)", a.cfg.Info.ID, a.cfg.Coordinator, beat)
			return beat, true
		}
		a.logf("register failed, retrying in %s: %v", retry, err)
		select {
		case <-a.stop:
			return 0, false
		case <-time.After(retry):
		}
		if retry < 5*time.Second {
			retry *= 2
		}
	}
}

// heartbeatUntilLost beats at the given cadence. It returns true when the
// agent was stopped, false when the registration was lost and the caller
// should re-register.
func (a *Agent) heartbeatUntilLost(beat time.Duration) bool {
	t := time.NewTicker(beat)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-a.stop:
			return true
		case <-t.C:
		}
		var h client.Health
		if a.cfg.Health != nil {
			h = a.cfg.Health()
		}
		if h.Status == "" {
			h.Status = client.HealthHealthy
		}
		ctx, cancel := context.WithTimeout(context.Background(), beat)
		err := a.cl.Heartbeat(ctx, a.cfg.Info.ID, h)
		cancel()
		switch {
		case err == nil:
			misses = 0
		case isNotFound(err):
			a.logf("coordinator forgot us, re-registering")
			return false
		default:
			// Transient: keep beating; the coordinator tolerates silence up
			// to its lapse. After several consecutive misses, assume a
			// coordinator restart and re-register from scratch.
			misses++
			a.logf("heartbeat failed (%d consecutive): %v", misses, err)
			if misses >= 5 {
				return false
			}
		}
	}
}

func isNotFound(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}

// abandon stops the loop WITHOUT deregistering — the SIGKILL path used by
// the cluster smoke test: the coordinator must detect the death by
// heartbeat lapse, not by a goodbye.
func (a *Agent) abandon() {
	a.once.Do(func() {
		close(a.stop)
		<-a.done
	})
}

// Close stops the loop and deregisters (best effort): the coordinator
// rebalances immediately instead of waiting out the lapse.
func (a *Agent) Close() {
	a.once.Do(func() {
		close(a.stop)
		<-a.done
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := a.cl.Deregister(ctx, a.cfg.Info.ID); err != nil {
			a.logf("deregister failed: %v", err)
		} else {
			a.logf("deregistered %s", a.cfg.Info.ID)
		}
	})
}
