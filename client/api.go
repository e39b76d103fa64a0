// Package client is the typed Go client for the sacd simulation daemon (and
// saccoord, which speaks the same jobs API) and the single source of truth
// for its JSON wire types and their codec (codec.go): the hand-written
// encoders and Unmarshal that both daemons and this client use, each
// pinned byte for byte to encoding/json, so daemon and client cannot drift.
//
// The client retries transient failures — connection errors, 429
// backpressure, 5xx — with capped exponential backoff, propagates contexts
// into every request, and exposes the jobs API's four routes (SubmitBatch,
// Watch/WaitAll/Wait, Status, Cancel; every terminal status carries its
// result, decoded by JobStatus.Outcome), and a blocking convenience (Run)
// that submits a batch of one and parks on the daemon's long-poll.
package client

import (
	"encoding/json"
	"time"

	"repro/internal/backend"
	"repro/internal/gpu"
)

// Job states reported by the daemon.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateExpired  = "expired"  // deadline passed before the job could finish
	StateCanceled = "canceled" // canceled by a client (or a coordinator steal)
	StateRequeued = "requeued" // journaled live; resumes on daemon restart
)

// Health states reported by /v1/healthz, in degradation order. A degraded
// daemon still accepts work but is slow (saccoord prefers healthy workers);
// an unhealthy one rejects all new work (503 + Retry-After).
const (
	HealthHealthy   = "healthy"
	HealthDegraded  = "degraded"
	HealthDraining  = "draining"
	HealthUnhealthy = "unhealthy"
)

// TimeoutHeader carries a submission deadline as integer milliseconds;
// the JSON timeout_ms field wins when both are present. The client sets it
// automatically from the submission context's deadline.
const TimeoutHeader = "X-Sacd-Timeout-Ms"

// Result sources: how a finished job's result was obtained.
const (
	SourceSim   = "sim"   // executed a fresh simulation
	SourceStore = "store" // served from the persistent result store
	SourceDedup = "dedup" // joined another client's in-flight simulation
	SourceMemo  = "memo"  // recalled a result already completed this process
)

// Fidelity rungs a job may request (sac.Fidelity values). Exact is the
// default and the only rung whose results are bit-exact; estimate jobs are
// answered synchronously on the accept path (the submission response is
// already terminal), while exact jobs flow through the queue.
const (
	FidelityEstimate = backend.Estimate
	FidelityExact    = backend.Exact
)

// JobRequest names one simulation cell to run.
type JobRequest struct {
	// Benchmark is a Table-4 workload name (sac.BenchmarkNames).
	Benchmark string `json:"benchmark"`
	// Org is an LLC organization name as printed by sac.Org.String
	// ("memory-side", "SM-side", "static", "dynamic", "SAC").
	Org string `json:"org"`
	// Preset picks the base configuration: "scaled" (default), "paper",
	// "mcm", or "multisocket". Ignored when Config is set.
	Preset string `json:"preset,omitempty"`
	// Config overrides the preset entirely with an explicit configuration
	// (its Org field is in turn overridden by Org above).
	Config *gpu.Config `json:"config,omitempty"`
	// Faults is a fault plan in the compact DSL ("" = healthy run).
	Faults string `json:"faults,omitempty"`
	// Fidelity selects the simulation rung: "estimate" or "exact"
	// ("" = exact). Unknown values are rejected with HTTP 400.
	// Estimate jobs never queue — the daemon answers them synchronously and
	// the submission response is already in a terminal state.
	Fidelity string `json:"fidelity,omitempty"`
	// TimeoutMS is the end-to-end deadline budget in milliseconds measured
	// from acceptance (0 = none): a job still queued past it fails fast
	// with state "expired" instead of burning a worker, and a running job
	// has its simulation cancelled. The deadline survives daemon restarts.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobStatus is the daemon's view of one job.
type JobStatus struct {
	// ID is a pending job's handle for Watch, Status and Cancel; a job settled
	// in its batch response (an estimate cell, a recall) has none.
	ID        string `json:"id,omitempty"`
	State     string `json:"state"`
	Benchmark string `json:"benchmark"`
	Org       string `json:"org"`
	// Fidelity is the rung the job ran at ("estimate" or "exact").
	Fidelity string `json:"fidelity"`
	// Key is the content address of the job's cell in the result store.
	Key string `json:"key,omitempty"`
	// Source reports how the result was obtained (done jobs only).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
	// QueueAhead is the number of jobs ahead in the queue (queued only).
	QueueAhead int `json:"queue_ahead,omitempty"`
	// Cycles is the simulated cycle count (done jobs only).
	Cycles int64 `json:"cycles,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// DeadlineAt is the job's absolute deadline (requests with TimeoutMS
	// only); preserved across daemon restarts.
	DeadlineAt *time.Time `json:"deadline_at,omitempty"`

	// Result carries a done job's completed run as raw JSON. Every status a
	// daemon answers with populates it, so a warm batch costs one round trip
	// instead of one per job. The bytes are the store's canonical stats.Run
	// encoding, served without a decode/re-encode cycle.
	Result json.RawMessage `json:"result,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (s JobStatus) Done() bool {
	switch s.State {
	case StateDone, StateFailed, StateExpired, StateCanceled:
		return true
	}
	return false
}

// Health is the /v1/healthz payload.
type Health struct {
	// Status is one of the Health* states above.
	Status string `json:"status"`
	// Reasons explains a non-healthy status, one human-readable signal per
	// entry (queue age, worker stall, journal failure, ...).
	Reasons    []string `json:"reasons,omitempty"`
	Draining   bool     `json:"draining"`
	Workers    int      `json:"workers"`
	Inflight   int      `json:"inflight"`
	QueueDepth int      `json:"queue_depth"`
	Jobs       int      `json:"jobs"`
	// OldestQueuedMS is the age of the oldest still-queued job.
	OldestQueuedMS int64 `json:"oldest_queued_ms,omitempty"`
	// RecoveryErrors counts data-loss signals seen at startup recovery:
	// corrupt journal records and unrestorable journaled jobs. Non-zero
	// means a previous life lost something — observable, not silent.
	RecoveryErrors int `json:"recovery_errors,omitempty"`
	// Journal statistics; zero values when the daemon runs unjournaled.
	JournalRecords int `json:"journal_records,omitempty"`
	JournalLive    int `json:"journal_live,omitempty"`
	// Store statistics; zero values when the daemon runs without a store.
	StoreObjects int   `json:"store_objects,omitempty"`
	StoreBytes   int64 `json:"store_bytes,omitempty"`
	// StoreCorrupt counts store records dropped since the store opened:
	// torn by a crash, damaged, or failing content-hash verification.
	StoreCorrupt int64 `json:"store_corrupt,omitempty"`
}

// WorkerInfo identifies one sacd worker to a saccoord coordinator: a stable
// ID (ring placement hashes it) and the base URL the coordinator dispatches
// jobs to.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// RegisterResponse is the coordinator's answer to a worker registration: the
// heartbeat cadence the worker must keep and the lapse after which a silent
// worker is declared dead and its jobs are stolen.
type RegisterResponse struct {
	HeartbeatMS int64 `json:"heartbeat_ms"`
	LapseMS     int64 `json:"lapse_ms"`
}

// WorkerStatus is the coordinator's view of one registered worker.
type WorkerStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Health is the worker's last self-reported health state (Health*
	// constants); "gone" once its heartbeats lapsed or it deregistered.
	Health string `json:"health"`
	// LastBeatMS is how long ago the last heartbeat arrived.
	LastBeatMS int64 `json:"last_beat_ms"`
	// Inflight counts coordinator dispatches currently running on the worker.
	Inflight int `json:"inflight"`
	// Dispatched counts jobs the coordinator has ever sent to the worker.
	Dispatched int64 `json:"dispatched"`
}

// FleetStatus is the /v1/fleet payload: the coordinator's worker table plus
// its fleet-wide counters.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	// Live is the number of workers currently in the placement ring.
	Live int `json:"live"`
	// Jobs is the number of jobs the coordinator holds, live or retained.
	Jobs int `json:"jobs"`
	// Flights is the number of its singleflight flights, running or completed.
	Flights int `json:"flights"`
	// Steals counts dispatches re-routed to another worker after the first
	// missed its deadline, died, or errored.
	Steals int64 `json:"steals"`
	// DedupHits counts jobs that joined another job's in-flight execution
	// fleet-wide (the global singleflight).
	DedupHits int64 `json:"dedup_hits"`
}

// MaxBatch caps how many jobs one jobs:batch call (and how many ids one
// jobs:watch call) may carry; larger requests are rejected with HTTP 400.
const MaxBatch = 1024

// BatchRequest is the POST /v1/jobs:batch payload: up to MaxBatch jobs
// submitted in one round trip.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchItem is one job's outcome inside a BatchResponse: exactly one of
// Status (the job was accepted) or Error (it was rejected) is set. Items are
// in request order.
type BatchItem struct {
	Status *JobStatus `json:"status,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// BatchResponse answers a jobs:batch submission. Admission is all-or-
// nothing: a 202 carries a status per item (estimate jobs are already
// terminal, with their results inline); a 400 sets Error
// and per-item errors on the offending items, and nothing was accepted —
// one bad cell cannot half-land a sweep.
type BatchResponse struct {
	Error string      `json:"error,omitempty"`
	Jobs  []BatchItem `json:"jobs"`
	// statuses, when set before a hand decode, is where the items' statuses
	// go, in order, before any fresh block; encoding/json never sees it.
	statuses []JobStatus
}

// WatchResponse answers GET /v1/jobs:watch: the terminal statuses among the
// watched ids at return time (empty if the timeout passed with none), plus
// any ids this daemon does not know — a job can age out of retention while
// being watched, and one forgotten id must not poison the rest.
type WatchResponse struct {
	Jobs    []JobStatus `json:"jobs"`
	Unknown []string    `json:"unknown,omitempty"`
}

// errorBody is the JSON error payload every non-2xx API response carries.
type errorBody struct {
	Error string `json:"error"`
}
