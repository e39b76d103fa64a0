package server

import (
	"fmt"
	"time"

	"repro/client"
)

// Health thresholds.
const (
	// degradedQueueAge is how long the oldest queued job may wait before the
	// daemon turns degraded and sheds batch-lane traffic.
	degradedQueueAge = 30 * time.Second
	// stallAfter is how long one job may run before its worker counts as
	// stalled (degraded; unhealthy when every worker is).
	stallAfter = 5 * time.Minute
)

// healthCode maps health states to the sacd_health_state gauge value, in
// degradation order.
func healthCode(state string) float64 {
	switch state {
	case client.HealthDegraded:
		return 1
	case client.HealthDraining:
		return 2
	case client.HealthUnhealthy:
		return 3
	}
	return 0
}

// oldestQueuedLocked returns the age of the oldest still-queued job (the
// head of each lane, since lanes are FIFO). Zero when the queue is empty.
func (s *Server) oldestQueuedLocked(now time.Time) time.Duration {
	var oldest time.Duration
	for lane := range s.queues {
		if q := s.queues[lane]; len(q) > 0 {
			if age := now.Sub(q[0].Submitted); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// healthLocked evaluates the health-state machine and returns the current
// state with its reasons. States in degradation order:
//
//	healthy   — accepting everything
//	degraded  — still serving, but shedding batch-lane submissions (429):
//	            queue age past degradedQueueAge, or a stalled worker
//	draining  — shutting down; no new work (503)
//	unhealthy — cannot guarantee durability or progress; no new work (503):
//	            journal append/sync failing, or every worker stalled
//
// The caller holds s.mu. Each evaluation also records state transitions to
// the metrics registry, so the gauge moves even when nobody polls healthz.
func (s *Server) healthLocked(now time.Time) (string, []string) {
	state := client.HealthHealthy
	var reasons []string

	if age := s.oldestQueuedLocked(now); age >= s.degradedQueueAge {
		state = client.HealthDegraded
		reasons = append(reasons, fmt.Sprintf(
			"oldest queued job waiting %s (threshold %s)",
			age.Round(time.Millisecond), s.degradedQueueAge))
	}
	stalled := 0
	for _, popped := range s.running {
		if now.Sub(popped) >= s.stallAfter {
			stalled++
		}
	}
	if stalled > 0 {
		state = client.HealthDegraded
		reasons = append(reasons, fmt.Sprintf(
			"%d worker(s) running one job longer than %s", stalled, s.stallAfter))
		if stalled >= s.cfg.Workers {
			state = client.HealthUnhealthy
			reasons = append(reasons, "every worker is stalled")
		}
	}
	if s.draining || s.closed {
		state = client.HealthDraining
		reasons = append([]string{"draining"}, reasons...)
	}
	if s.journalErr != nil {
		// Durability is gone: an accept we acknowledge might not survive a
		// crash, so stop acknowledging. Overrides draining — an operator
		// watching healthz during shutdown still sees the journal failure.
		state = client.HealthUnhealthy
		reasons = append(reasons, "journal: "+s.journalErr.Error())
	}
	s.noteHealthLocked(state)
	return state, reasons
}

// noteHealthLocked records a health-state transition.
func (s *Server) noteHealthLocked(state string) {
	if state == s.lastHealth {
		return
	}
	s.logf("health: %s -> %s", s.lastHealth, state)
	s.lastHealth = state
	s.m.healthState.Set(healthCode(state))
	s.m.healthTransitions.Inc()
}

// RetryAfterHint estimates, in whole seconds, when a rejected client should
// come back: one second plus the queue backlog amortized over the worker
// pool, capped so a deep queue cannot park clients for minutes.
func (s *Server) RetryAfterHint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.cfg.Workers
	if w < 1 {
		w = 1
	}
	secs := 1 + s.queued/(2*w)
	if secs > 30 {
		secs = 30
	}
	return secs
}
