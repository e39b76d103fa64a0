// Package server is the sacd serving subsystem: a bounded job queue with
// priority lanes and 429 backpressure, a worker pool that executes
// simulations through the eval Runner's parallel engine, singleflight
// deduplication across clients on the persistent store's content-addressed
// cache key, and crash-safe job durability — every accepted job is recorded
// in an append-only journal (internal/journal) before the client sees its
// 202, so a daemon that dies by panic, OOM, or kill -9 re-enqueues exactly
// the accepted-but-unfinished set on its next start.
//
// The execution path layers three caches, cheapest first: a per-process
// flight table (jobs for a key already completed or in flight this process
// join instantly), the persistent result store (shared with offline
// sacsweep runs and earlier daemon lives), and finally a fresh simulation
// through the shared eval.Runner. All three produce byte-identical results
// to an in-process sac.Run of the same cell.
//
// Jobs may carry an end-to-end deadline (client.JobRequest.TimeoutMS or the
// X-Sacd-Timeout-Ms header): a job still queued past its deadline fails
// fast with state "expired" instead of burning a worker, a running job has
// its simulation cancelled, and the absolute deadline survives restarts via
// the journal. Admission is governed by a health-state machine (health.go):
// a degraded daemon sheds batch-lane traffic, an unhealthy one sheds
// everything, and both attach Retry-After so clients pace their comeback.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Sentinel errors surfaced to the HTTP layer.
var (
	// ErrQueueFull reports queue backpressure (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining reports a draining daemon (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrShedding reports a degraded daemon shedding batch-lane work
	// (HTTP 429 with Retry-After).
	ErrShedding = errors.New("server: degraded, shedding batch-lane jobs")
	// ErrUnhealthy reports a daemon that cannot guarantee durability or
	// progress (HTTP 503 with Retry-After).
	ErrUnhealthy = errors.New("server: unhealthy, not accepting jobs")
)

// Config parameterizes a Server.
type Config struct {
	// Store is the persistent result cache; nil runs memo-only.
	Store *store.Store
	// JournalPath, when non-empty, is the durable job journal. Every accept
	// is journaled before the client is acknowledged; Recover replays the
	// journal so a crashed daemon resumes accepted-but-unfinished jobs
	// under their original IDs. Empty runs unjournaled (accepted jobs die
	// with the process).
	JournalPath string
	// JournalSync fsyncs every journal append (the REPRO_JOURNAL_SYNC
	// gate). Off, appends still reach the OS page cache — surviving
	// process death, which is what the chaos harness exercises — but not
	// power loss.
	JournalSync bool
	// RequeuePath is the legacy (pre-journal) drain spill file. Recover
	// still imports and deletes it so an upgraded daemon loses nothing;
	// Drain only writes it when running unjournaled.
	RequeuePath string
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// DefaultFidelity is the rung applied to jobs that name none (the sacd
	// -fidelity flag); "" means exact. Unknown values fail at Submit.
	DefaultFidelity string
	// ChipWorkers sets each simulation's intra-run chip parallelism
	// (bit-identical at any value). 0 auto-budgets against Workers so chip
	// workers × concurrent simulations never oversubscribes cores; a daemon
	// serving a single high-priority job at Workers=1 gets every core.
	ChipWorkers int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API mux
	// (the sacd -pprof flag), so CPU and heap profiles of live serving are
	// one curl away.
	EnablePprof bool
	// QueueCap bounds queued-but-not-started jobs across all lanes; a full
	// queue rejects submissions with ErrQueueFull. 0 means 256.
	QueueCap int
	// DegradedQueueAge is how long the oldest queued job may wait before
	// the daemon turns degraded and sheds batch-lane traffic; 0 means 30s.
	DegradedQueueAge time.Duration
	// StallAfter is how long one job may run before its worker counts as
	// stalled (degraded; unhealthy when every worker is); 0 means 5m.
	StallAfter time.Duration
	// Chaos injects faults for the chaos harness; zero injects nothing.
	Chaos Chaos
	// Registry receives serving metrics (queue depth, cache hit/miss, job
	// latency, inflight workers); nil disables them.
	Registry *obs.Registry
	// Log receives one line per job transition; nil is silent.
	Log io.Writer
}

// lanes in pop order.
var lanes = []string{client.PriorityHigh, client.PriorityNormal, client.PriorityBatch}

func laneIndex(p string) (int, error) {
	switch p {
	case client.PriorityHigh:
		return 0, nil
	case "", client.PriorityNormal:
		return 1, nil
	case client.PriorityBatch:
		return 2, nil
	}
	return 0, fmt.Errorf("unknown priority %q", p)
}

// job is the server-side record of one submission.
type job struct {
	id   string
	req  client.JobRequest
	lane int

	// Resolved simulation identity. fidelity is the normalized rung ("" =
	// exact) and is part of key, so runs of the same cell at different rungs
	// never dedup onto each other or alias in the store.
	cfg      gpu.Config
	spec     workload.Spec
	plan     *fault.Plan
	fidelity string
	key      string

	// rawReq is the request as journaled, kept for runtime compaction.
	// deadline is the absolute end-to-end deadline (zero = none). Both are
	// written once before the job is published and read-only after.
	rawReq   json.RawMessage
	deadline time.Time

	// cancelCh closes when a client cancels the job; queued jobs are skipped
	// at pop, joiners detach from their flight, and the flight leader's
	// simulation context (cancel, set while leading) is canceled.
	cancelCh   chan struct{}
	cancelOnce sync.Once

	// doneCh closes exactly once when the job reaches a terminal state —
	// the long-poll watch endpoint parks on it instead of polling status.
	doneCh   chan struct{}
	doneOnce sync.Once

	mu     sync.Mutex
	cancel context.CancelFunc
	state  string
	source string
	err    error
	res    *stats.Run
	// raw is the result in canonical wire form. Store hits carry only raw
	// (the verified on-disk bytes, served without a decode/re-encode);
	// fresh simulations carry res and marshal raw lazily on first demand.
	// cycles mirrors the run's cycle counter for status reporting.
	raw       json.RawMessage
	cycles    int64
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// markTerminal closes doneCh exactly once, waking every watcher of this job.
// Call it after the terminal state is published under j.mu.
func (j *job) markTerminal() { j.doneOnce.Do(func() { close(j.doneCh) }) }

// flight is one singleflight execution of a cache key. The first job to
// reach a key becomes the leader and executes; concurrent jobs for the same
// key wait on done (source "dedup"), later jobs find the completed flight
// (source "memo"). Failed flights are evicted so a resubmission retries.
type flight struct {
	done chan struct{}
	res  *stats.Run
	// raw is the canonical wire-form result when the leader loaded it from
	// the store (verified bytes, no decode); nil for fresh simulations,
	// whose res is marshaled lazily when a raw consumer asks. cycles is the
	// run's cycle counter, available on both paths without decoding.
	raw    json.RawMessage
	cycles int64
	err    error
	source string // how the leader obtained the result: sim or store
}

// metrics are the server's obs series.
type metrics struct {
	queueDepth        [3]*obs.Metric
	inflight          *obs.Metric
	accepted          *obs.Metric
	rejected          *obs.Metric
	done              *obs.Metric
	failed            *obs.Metric
	expired           *obs.Metric
	canceled          *obs.Metric
	shed              *obs.Metric
	hits              *obs.Metric
	misses            *obs.Metric
	dedup             *obs.Metric
	memo              *obs.Metric
	requeued          *obs.Metric
	recoveryErrs      *obs.Metric
	jnlAppends        *obs.Metric
	jnlCompactions    *obs.Metric
	jnlRecords        *obs.Metric
	healthState       *obs.Metric
	healthTransitions *obs.Metric
	jobLatency        *obs.Histogram
	waitLatency       *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	latency := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
	m := &metrics{
		inflight:          reg.Gauge("sacd_inflight_workers", "Jobs currently executing."),
		accepted:          reg.Counter("sacd_jobs_accepted_total", "Jobs accepted into the queue."),
		rejected:          reg.Counter("sacd_jobs_rejected_total", "Jobs rejected by backpressure, shedding, or drain."),
		done:              reg.Counter("sacd_jobs_done_total", "Jobs that finished successfully."),
		failed:            reg.Counter("sacd_jobs_failed_total", "Jobs that finished with an error."),
		expired:           reg.Counter("sacd_jobs_expired_total", "Jobs that missed their end-to-end deadline."),
		canceled:          reg.Counter("sacd_jobs_canceled_total", "Jobs canceled by a client or a coordinator steal."),
		shed:              reg.Counter("sacd_jobs_shed_total", "Batch-lane jobs shed while degraded."),
		hits:              reg.Counter("sacd_cache_hits_total", "Jobs served from the persistent result store."),
		misses:            reg.Counter("sacd_cache_misses_total", "Jobs that missed the store and simulated."),
		dedup:             reg.Counter("sacd_dedup_joins_total", "Jobs that joined another job's in-flight simulation."),
		memo:              reg.Counter("sacd_memo_recalls_total", "Jobs recalled from a result completed earlier this process."),
		requeued:          reg.Counter("sacd_jobs_requeued_total", "Queued jobs carried across a drain for the next daemon life."),
		recoveryErrs:      reg.Counter("sacd_recovery_errors_total", "Data-loss signals at startup recovery: corrupt journal records and unrestorable jobs."),
		jnlAppends:        reg.Counter("sacd_journal_appends_total", "Journal records appended."),
		jnlCompactions:    reg.Counter("sacd_journal_compactions_total", "Runtime journal compactions."),
		jnlRecords:        reg.Gauge("sacd_journal_records", "Records in the journal file."),
		healthState:       reg.Gauge("sacd_health_state", "Health state: 0 healthy, 1 degraded, 2 draining, 3 unhealthy."),
		healthTransitions: reg.Counter("sacd_health_transitions_total", "Health-state machine transitions."),
		jobLatency:        reg.Histogram("sacd_job_latency_seconds", "Submit-to-finish latency.", latency),
		waitLatency:       reg.Histogram("sacd_job_run_seconds", "Start-to-finish execution latency.", latency),
	}
	for i, lane := range lanes {
		m.queueDepth[i] = reg.Gauge("sacd_queue_depth", "Queued jobs per priority lane.", obs.L("lane", lane))
	}
	return m
}

// Server is one serving instance.
type Server struct {
	cfg    Config
	runner *eval.Runner
	m      *metrics

	mu             sync.Mutex
	cond           *sync.Cond
	queues         [3][]*job
	queued         int
	jobs           map[string]*job
	running        map[string]*job
	flights        map[string]*flight
	jnl            *journal.Journal
	journalErr     error
	recoveryErrors int
	inflight       int
	draining       bool
	closed         bool
	lastHealth     string

	wg sync.WaitGroup
}

// New builds a Server; call Recover to restore previous lives' jobs, then
// Start to launch its workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	var observer *obs.Observer
	if cfg.Registry != nil {
		observer = &obs.Observer{Metrics: cfg.Registry}
	}
	s := &Server{
		cfg: cfg,
		runner: &eval.Runner{
			Base:        gpu.ScaledConfig(),
			Parallelism: cfg.Workers,
			ChipWorkers: cfg.ChipWorkers,
			Store:       cfg.Store,
			Obs:         observer,
			Log:         cfg.Log, // Verbose stays off: only the first failed write-back speaks
		},
		m:       newMetrics(cfg.Registry),
		jobs:    make(map[string]*job),
		running: make(map[string]*job),
		// flights deduplicate on the store key across clients; the runner
		// memo beneath would too, but the flight table lets the server
		// distinguish dedup joins from memo recalls and count them.
		flights:    make(map[string]*flight),
		lastHealth: client.HealthHealthy,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.pop()
				if j == nil {
					return
				}
				s.runJob(j)
			}
		}()
	}
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// newJobID draws a random 8-byte hex id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: entropy unavailable: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// ResolvedJob is a job request validated and resolved to its full
// simulation identity: the concrete configuration, workload, fault plan,
// normalized fidelity rung, and the content address the result is filed
// under. The cluster coordinator resolves submissions through this to
// validate them and to compute consistent-hash placement on Key without
// running a Server of its own.
type ResolvedJob struct {
	Cfg      gpu.Config
	Spec     workload.Spec
	Plan     *fault.Plan
	Fidelity string // normalized rung ("" = exact)
	Key      string // store.KeyAt content address
}

// ResolveRequest validates req and resolves its simulation identity.
// defaultFidelity applies when the request names no rung ("" = exact).
func ResolveRequest(req client.JobRequest, defaultFidelity string) (ResolvedJob, error) {
	if _, err := laneIndex(req.Priority); err != nil {
		return ResolvedJob{}, err
	}
	if req.TimeoutMS < 0 {
		return ResolvedJob{}, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	reqFid := req.Fidelity
	if reqFid == "" {
		reqFid = defaultFidelity
	}
	fid, err := backend.Normalize(reqFid)
	if err != nil {
		return ResolvedJob{}, err
	}
	cfg, spec, plan, err := resolve(req)
	if err != nil {
		return ResolvedJob{}, err
	}
	if fid == backend.Estimate && !plan.Empty() {
		return ResolvedJob{}, fmt.Errorf("fidelity %q cannot apply a fault plan; use %q or %q",
			backend.Estimate, backend.Sampled, backend.Exact)
	}
	return ResolvedJob{
		Cfg: cfg, Spec: spec, Plan: plan, Fidelity: fid,
		Key: store.KeyAt(cfg, spec.Name, plan.Key(), fid),
	}, nil
}

// resolve validates a request and resolves its simulation identity.
func resolve(req client.JobRequest) (gpu.Config, workload.Spec, *fault.Plan, error) {
	spec, err := workload.ByName(req.Benchmark)
	if err != nil {
		return gpu.Config{}, workload.Spec{}, nil, err
	}
	org, err := llc.ParseOrg(req.Org)
	if err != nil {
		return gpu.Config{}, workload.Spec{}, nil, err
	}
	var cfg gpu.Config
	switch {
	case req.Config != nil:
		cfg = *req.Config
	default:
		switch req.Preset {
		case "", "scaled":
			cfg = gpu.ScaledConfig()
		case "paper":
			cfg = gpu.PaperConfig()
		case "mcm":
			cfg = gpu.MCMConfig()
		case "multisocket":
			cfg = gpu.MultiSocketConfig()
		default:
			return gpu.Config{}, workload.Spec{}, nil, fmt.Errorf("unknown preset %q", req.Preset)
		}
	}
	cfg = cfg.WithOrg(org)
	if err := cfg.Validate(); err != nil {
		return gpu.Config{}, workload.Spec{}, nil, err
	}
	var plan *fault.Plan
	if req.Faults != "" {
		plan, err = fault.Parse(req.Faults)
		if err != nil {
			return gpu.Config{}, workload.Spec{}, nil, err
		}
		if err := plan.Validate(cfg.FaultShape()); err != nil {
			return gpu.Config{}, workload.Spec{}, nil, err
		}
	}
	return cfg, spec, plan, nil
}

// Submit validates and enqueues one job. Validation failures come back as
// plain errors (HTTP 400); ErrQueueFull, ErrShedding, ErrDraining, and
// ErrUnhealthy signal backpressure, load shedding, and drain.
func (s *Server) Submit(req client.JobRequest) (client.JobStatus, error) {
	return s.submit(req, "", time.Time{}, false)
}

// submit enqueues with an optional pinned id and absolute deadline (both
// used by recovery: restored jobs keep their identity and their original
// deadline — a crash must not extend an SLO). Pinned jobs were accepted by
// a previous daemon life, so they bypass the queue cap and load shedding:
// dropping them now would be the data loss the journal exists to prevent.
// journaled marks jobs already on disk (journal compaction at Open keeps
// exactly the live set), whose accepts must not be re-appended.
func (s *Server) submit(req client.JobRequest, pinnedID string, deadline time.Time, journaled bool) (client.JobStatus, error) {
	rj, err := ResolveRequest(req, s.cfg.DefaultFidelity)
	if err != nil {
		return client.JobStatus{}, err
	}
	lane, _ := laneIndex(req.Priority) // validated by ResolveRequest
	now := time.Now()
	if deadline.IsZero() && req.TimeoutMS > 0 {
		deadline = now.Add(time.Duration(req.TimeoutMS) * time.Millisecond)
	}
	j := &job{
		id:        pinnedID,
		req:       req,
		lane:      lane,
		cfg:       rj.Cfg,
		spec:      rj.Spec,
		plan:      rj.Plan,
		fidelity:  rj.Fidelity,
		key:       rj.Key,
		deadline:  deadline,
		cancelCh:  make(chan struct{}),
		doneCh:    make(chan struct{}),
		state:     client.StateQueued,
		submitted: now,
	}
	if j.id == "" {
		j.id = newJobID()
	}
	if rj.Fidelity == backend.Estimate {
		// The estimate rung answers in microseconds: run it synchronously on
		// the accept path — no queue slot, no journal record, no worker — and
		// hand the client a terminal status in the submission response.
		return s.runInline(j, false)
	}

	s.mu.Lock()
	if err := s.admitLocked(j, pinnedID != ""); err != nil {
		s.mu.Unlock()
		if s.m != nil {
			s.m.rejected.Inc()
			if errors.Is(err, ErrShedding) {
				s.m.shed.Inc()
			}
		}
		return client.JobStatus{}, err
	}
	if err := s.enqueueLocked(j, journaled); err != nil {
		s.mu.Unlock()
		if s.m != nil {
			s.m.rejected.Inc()
		}
		return client.JobStatus{}, err
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.logf("accepted %s %s/%s lane=%s fidelity=%s key=%.12s",
		j.id, j.spec.Name, j.cfg.Org, lanes[lane], backend.Display(j.fidelity), j.key)
	return st, nil
}

// enqueueLocked journals the accept (unless journaled marks it already on
// disk), publishes the job, and queues it in its lane. The caller holds s.mu
// and has already passed admitLocked; on error nothing was enqueued.
func (s *Server) enqueueLocked(j *job, journaled bool) error {
	if s.jnl != nil {
		raw, merr := json.Marshal(j.req)
		if merr != nil {
			return fmt.Errorf("server: encoding request: %w", merr)
		}
		j.rawReq = raw
		if !journaled {
			rec := journal.Record{Op: journal.OpAccept, ID: j.id, Req: raw}
			if !j.deadline.IsZero() {
				rec.Deadline = j.deadline.UnixMilli()
			}
			if jerr := s.jnl.Append(rec); jerr != nil {
				// The accept may not be durable: refuse to acknowledge it.
				// journalErr flips the health state to unhealthy so the
				// client's retry meets a 503 instead of a broken promise.
				s.journalErr = jerr
				return fmt.Errorf("%w: %v", ErrUnhealthy, jerr)
			}
			s.journalErr = nil
			if s.m != nil {
				s.m.jnlAppends.Inc()
				s.m.jnlRecords.Set(float64(s.jnl.Records()))
			}
		}
	}
	s.queues[j.lane] = append(s.queues[j.lane], j)
	s.queued++
	s.jobs[j.id] = j
	if s.m != nil {
		s.m.accepted.Inc()
		s.m.queueDepth[j.lane].Add(1)
	}
	s.cond.Signal()
	return nil
}

// SubmitBatch validates and enqueues up to client.MaxBatch jobs in one call.
// Admission is all-or-nothing: if any request fails validation, itemErrs
// carries one message per offending item (aligned with reqs, "" = valid) and
// nothing is accepted; if the batch as a whole cannot be admitted (queue
// cap, shedding, drain), err is the usual sentinel. On success every job is
// admitted under one lock acquisition — a batch can never half-land around a
// concurrent submitter — and estimate items are executed inline (first
// occurrence of each key first, so in-batch duplicates hit the memo/store)
// before the statuses, in request order, are returned.
func (s *Server) SubmitBatch(reqs []client.JobRequest) (sts []client.JobStatus, itemErrs []string, err error) {
	if len(reqs) == 0 {
		return nil, nil, errors.New("empty batch")
	}
	if len(reqs) > client.MaxBatch {
		return nil, nil, fmt.Errorf("batch of %d jobs exceeds the limit of %d", len(reqs), client.MaxBatch)
	}
	now := time.Now()
	jobs := make([]*job, len(reqs))
	bad := false
	itemErrs = make([]string, len(reqs))
	nQueued := 0
	for i, req := range reqs {
		rj, rerr := ResolveRequest(req, s.cfg.DefaultFidelity)
		if rerr != nil {
			itemErrs[i] = rerr.Error()
			bad = true
			continue
		}
		lane, _ := laneIndex(req.Priority)
		var deadline time.Time
		if req.TimeoutMS > 0 {
			deadline = now.Add(time.Duration(req.TimeoutMS) * time.Millisecond)
		}
		jobs[i] = &job{
			id:        newJobID(),
			req:       req,
			lane:      lane,
			cfg:       rj.Cfg,
			spec:      rj.Spec,
			plan:      rj.Plan,
			fidelity:  rj.Fidelity,
			key:       rj.Key,
			deadline:  deadline,
			cancelCh:  make(chan struct{}),
			doneCh:    make(chan struct{}),
			state:     client.StateQueued,
			submitted: now,
		}
		if rj.Fidelity != backend.Estimate {
			nQueued++
		}
	}
	if bad {
		if s.m != nil {
			s.m.rejected.Add(float64(len(reqs)))
		}
		return nil, itemErrs, nil
	}

	s.mu.Lock()
	// Admit the batch as a unit: the strictest lane decides shedding, and
	// the queue must fit every queueable item or none. Estimate items gate
	// only on drain, exactly like the single-submit inline path — they take
	// no queue slot and no worker, so the cap and shedding don't apply.
	for _, j := range jobs {
		if j.fidelity == backend.Estimate {
			if s.draining || s.closed {
				s.mu.Unlock()
				if s.m != nil {
					s.m.rejected.Add(float64(len(reqs)))
				}
				return nil, nil, ErrDraining
			}
			continue
		}
		if aerr := s.admitLocked(j, false); aerr != nil {
			s.mu.Unlock()
			if s.m != nil {
				s.m.rejected.Add(float64(len(reqs)))
				if errors.Is(aerr, ErrShedding) {
					s.m.shed.Inc()
				}
			}
			return nil, nil, aerr
		}
	}
	if nQueued > 0 && s.queued+nQueued > s.cfg.QueueCap {
		s.mu.Unlock()
		if s.m != nil {
			s.m.rejected.Add(float64(len(reqs)))
		}
		return nil, nil, ErrQueueFull
	}
	var estimates []*job
	for _, j := range jobs {
		if j.fidelity == backend.Estimate {
			// Registered now so the returned ids resolve immediately; run
			// after the lock drops.
			s.jobs[j.id] = j
			if s.m != nil {
				s.m.accepted.Inc()
			}
			estimates = append(estimates, j)
			continue
		}
		if qerr := s.enqueueLocked(j, false); qerr != nil {
			// A journal append failed mid-batch: earlier items are accepted
			// and will run (content-addressed results make that harmless on
			// retry); the batch as a whole reports the failure.
			s.mu.Unlock()
			if s.m != nil {
				s.m.rejected.Inc()
			}
			return nil, nil, qerr
		}
	}
	s.mu.Unlock()

	s.runInlineBatch(estimates)

	sts = make([]client.JobStatus, len(jobs))
	s.mu.Lock()
	for i, j := range jobs {
		sts[i] = s.statusLocked(j)
	}
	s.mu.Unlock()
	s.logf("accepted batch of %d (%d queued, %d estimate)", len(jobs), nQueued, len(estimates))
	return sts, nil, nil
}

// runInlineBatch executes a batch's estimate items with bounded parallelism,
// first occurrence of each key first so in-batch duplicates land on the
// store (zero-copy raw hit) instead of simulating twice.
func (s *Server) runInlineBatch(estimates []*job) {
	if len(estimates) == 0 {
		return
	}
	var firsts, dups []*job
	seen := make(map[string]bool, len(estimates))
	for _, j := range estimates {
		if seen[j.key] {
			dups = append(dups, j)
			continue
		}
		seen[j.key] = true
		firsts = append(firsts, j)
	}
	for _, wave := range [][]*job{firsts, dups} {
		if len(wave) == 0 {
			continue
		}
		sem := make(chan struct{}, s.cfg.Workers)
		var wg sync.WaitGroup
		for _, j := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(j *job) {
				defer wg.Done()
				defer func() { <-sem }()
				s.runInline(j, true)
			}(j)
		}
		wg.Wait()
	}
}

// runInline executes an estimate job synchronously on the accept path: the
// rung answers in microseconds, so it takes no queue slot, no journal record
// and no worker, and the submission response already carries the terminal
// state. Only drain gates admission — shedding and the queue cap protect
// workers and queue slots, neither of which this path consumes. admitted
// marks jobs SubmitBatch already registered and counted under its one lock
// pass (an admitted batch runs to completion even if a drain starts
// mid-batch, like any accepted job).
func (s *Server) runInline(j *job, admitted bool) (client.JobStatus, error) {
	if !admitted {
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			if s.m != nil {
				s.m.rejected.Inc()
			}
			return client.JobStatus{}, ErrDraining
		}
		s.jobs[j.id] = j
		s.mu.Unlock()
		if s.m != nil {
			s.m.accepted.Inc()
		}
	}

	j.mu.Lock()
	j.state = client.StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	var (
		res    *stats.Run
		raw    json.RawMessage
		cycles int64
		source string
		err    error
	)
	func() {
		// Contain panics (chaos injection, poisoned input) exactly like the
		// worker path: a failed estimate is a failed job, not a dead daemon.
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("server: panic executing %s: %v", j.id, r)
			}
		}()
		if hook := s.cfg.Chaos.BeforeRun; hook != nil {
			hook(j.id)
		}
		if b, c, ok := s.cfg.Store.GetRaw(j.key); ok {
			// Warm hit: the verified on-disk bytes are the response — no
			// decode, no re-encode.
			raw, cycles, source = b, c, client.SourceStore
			if s.m != nil {
				s.m.hits.Inc()
			}
			return
		}
		if s.cfg.Store != nil && s.m != nil {
			s.m.misses.Inc()
		}
		res, err = backend.Run(j.cfg, j.spec, gpu.RunOpts{Faults: j.plan, Fidelity: j.fidelity})
		source = client.SourceSim
		if err == nil {
			cycles = res.Cycles
			if s.cfg.Store != nil {
				if perr := s.cfg.Store.PutRunAt(j.cfg, j.spec.Name, j.plan.Key(), j.fidelity, res); perr != nil {
					s.logf("store: put %s: %v", j.id, perr)
				}
			}
		}
	}()

	j.mu.Lock()
	j.finished = time.Now()
	j.source = source
	if err != nil {
		j.state = client.StateFailed
		j.err = err
	} else {
		j.state = client.StateDone
		j.res = res
		j.raw = raw
		j.cycles = cycles
	}
	total := j.finished.Sub(j.submitted).Seconds()
	state := j.state
	j.mu.Unlock()
	j.markTerminal()
	if s.m != nil {
		if err != nil {
			s.m.failed.Inc()
		} else {
			s.m.done.Inc()
		}
		s.m.jobLatency.Observe(total)
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.logf("%s %s fidelity=estimate source=%s total=%.6fs", state, j.id, source, total)
	return st, nil
}

// admitLocked applies the health-state machine to one submission: draining
// and unhealthy daemons accept nothing, degraded daemons shed the batch
// lane, and the queue cap backpressures the rest. Restored jobs bypass
// shedding and the cap (see submit).
func (s *Server) admitLocked(j *job, restored bool) error {
	if s.draining || s.closed {
		return ErrDraining
	}
	state, _ := s.healthLocked(time.Now())
	if restored {
		return nil
	}
	switch state {
	case client.HealthUnhealthy:
		// Journal-driven unhealthiness is not a reject here: the accept
		// append below retries the disk, and its success is what heals
		// journalErr — otherwise an idle daemon would stay unhealthy
		// forever after a transient disk error.
		if s.journalErr == nil {
			return ErrUnhealthy
		}
	case client.HealthDegraded:
		if j.lane == 2 { // batch
			return ErrShedding
		}
	}
	if s.queued >= s.cfg.QueueCap {
		return ErrQueueFull
	}
	return nil
}

// pop blocks for the next job in priority order; nil means shut down. Jobs
// whose deadline passed while queued are expired here — terminal state,
// journaled, no worker time burned — and the scan continues.
func (s *Server) pop() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for lane := range s.queues {
			for len(s.queues[lane]) > 0 {
				j := s.queues[lane][0]
				s.queues[lane] = s.queues[lane][1:]
				s.queued--
				if s.m != nil {
					s.m.queueDepth[lane].Add(-1)
				}
				j.mu.Lock()
				canceled := j.state == client.StateCanceled
				j.mu.Unlock()
				if canceled {
					// Canceled while queued: Cancel already journaled the
					// terminal state, the slot just frees here.
					continue
				}
				if !j.deadline.IsZero() && time.Now().After(j.deadline) {
					s.expireLocked(j)
					continue
				}
				s.inflight++
				s.running[j.id] = j
				if s.m != nil {
					s.m.inflight.Add(1)
				}
				return j
			}
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// expireLocked marks a job expired (deadline passed before it could run),
// journals the terminal state, and counts it. The caller holds s.mu.
func (s *Server) expireLocked(j *job) {
	now := time.Now()
	j.mu.Lock()
	j.state = client.StateExpired
	j.finished = now
	j.err = fmt.Errorf("deadline %s passed", j.deadline.Format(time.RFC3339Nano))
	total := now.Sub(j.submitted).Seconds()
	j.mu.Unlock()
	j.markTerminal()
	if s.m != nil {
		s.m.expired.Inc()
		s.m.jobLatency.Observe(total)
	}
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.id, State: "expired"})
	s.maybeCompactLocked()
	s.logf("expired %s after %.3fs", j.id, total)
}

// closeCancel trips the job's cancel channel exactly once.
func (j *job) closeCancel() { j.cancelOnce.Do(func() { close(j.cancelCh) }) }

// cancelLocked marks a job canceled (it never ran, or detached from its
// flight as a joiner), journals the terminal state, and counts it. The
// caller holds s.mu.
func (s *Server) cancelLocked(j *job) {
	now := time.Now()
	j.mu.Lock()
	j.state = client.StateCanceled
	j.finished = now
	j.err = errors.New("canceled by client")
	total := now.Sub(j.submitted).Seconds()
	j.mu.Unlock()
	j.closeCancel()
	j.markTerminal()
	if s.m != nil {
		s.m.canceled.Inc()
		s.m.jobLatency.Observe(total)
	}
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.id, State: "canceled"})
	s.maybeCompactLocked()
	s.logf("canceled %s after %.3fs", j.id, total)
}

// Cancel terminates one job: still queued, it reaches state "canceled"
// without burning a worker; running, the flight leader's simulation context
// is canceled (joiners merely detach). Jobs already terminal are untouched —
// Cancel returns their status as-is, so it is safe to race a finishing job.
// The coordinator issues this as the steal-cancel after re-dispatching a job
// to another worker; because results are content-addressed and idempotent, a
// cancel that loses the race costs nothing but the duplicate work it failed
// to save. Note that canceling a flight leader cancels the flight: other
// jobs joined to the same cache key fail canceled with it (resubmissions
// retry — failed flights are evicted).
func (s *Server) Cancel(id string) (client.JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return client.JobStatus{}, false
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	_, popped := s.running[j.id]
	switch {
	case state == client.StateQueued && !popped:
		// Still sitting in a lane (pop moves a job into s.running under
		// s.mu before it can start, so this check cannot race a worker).
		s.cancelLocked(j)
	case state == client.StateQueued || state == client.StateRunning:
		// The terminal state publishes through the normal finish path: the
		// leader's context aborts the simulation, a joiner detaches on
		// cancelCh.
		j.closeCancel()
		if cancel != nil {
			cancel()
		}
	}
	return s.statusLocked(j), true
}

// runJob executes one popped job and contains any panic that escapes the
// execution path, so a single poisoned job cannot take a worker (or the
// daemon) down with it.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			marked := false
			j.mu.Lock()
			if j.state == client.StateRunning {
				j.state = client.StateFailed
				j.err = fmt.Errorf("server: worker panic: %v", r)
				j.finished = time.Now()
				marked = true
			}
			j.mu.Unlock()
			if marked {
				j.markTerminal()
			}
			s.logf("worker: recovered panic executing %s: %v", j.id, r)
			if marked {
				if s.m != nil {
					s.m.failed.Inc()
				}
				s.mu.Lock()
				s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.id, State: "failed"})
				s.mu.Unlock()
			}
		}
		s.mu.Lock()
		s.inflight--
		delete(s.running, j.id)
		if s.m != nil {
			s.m.inflight.Add(-1)
		}
		s.mu.Unlock()
	}()
	s.execute(j)
}

// execute runs one job through the flight table / store / runner stack.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	j.state = client.StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	s.mu.Lock()
	s.journalLocked(journal.Record{Op: journal.OpStart, ID: j.id})
	f, joins := s.flights[j.key]
	if !joins {
		// No flight yet: this job leads the execution for its key.
		f = &flight{done: make(chan struct{})}
		s.flights[j.key] = f
		s.mu.Unlock()
		s.lead(f, j)
		if f.err != nil {
			// Evict the failed flight and the runner's memo of it so a
			// resubmission retries instead of recalling the failure
			// forever. In-RunAll memoization (one report per failing cell
			// in a sweep) is unaffected: eviction happens after the run.
			s.mu.Lock()
			delete(s.flights, j.key)
			s.mu.Unlock()
			s.runner.Forget(eval.RunRequest{Cfg: j.cfg, Spec: j.spec, Faults: j.plan, Fidelity: j.fidelity})
		}
		j.finish(s, f, f.source)
		return
	}
	completed := false
	select {
	case <-f.done:
		completed = true
	default:
	}
	s.mu.Unlock()
	if completed {
		// The key finished earlier in this process: instant recall.
		j.finish(s, f, client.SourceMemo)
		if s.m != nil {
			s.m.memo.Inc()
		}
		return
	}
	// Another client's identical cell is simulating right now: join it
	// instead of simulating twice — but only for as long as this job's own
	// deadline allows, and only until this job is canceled (the flight keeps
	// running for its remaining waiters).
	var deadlineC <-chan time.Time
	if !j.deadline.IsZero() {
		t := time.NewTimer(time.Until(j.deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-f.done:
	case <-deadlineC:
		s.mu.Lock()
		s.expireLocked(j)
		s.mu.Unlock()
		return
	case <-j.cancelCh:
		s.mu.Lock()
		s.cancelLocked(j)
		s.mu.Unlock()
		return
	}
	j.finish(s, f, client.SourceDedup)
	if s.m != nil {
		s.m.dedup.Inc()
	}
}

// lead executes the simulation (or store load) on behalf of a flight. A
// panic in the execution path (chaos injection, poisoned input) is caught
// here so f.done always closes with f.err set — joiners see a failed job,
// never a bogus success.
func (s *Server) lead(f *flight, j *job) {
	defer func() {
		if r := recover(); r != nil {
			f.res = nil
			f.err = fmt.Errorf("server: panic executing %s: %v", j.id, r)
		}
		close(f.done)
	}()
	if hook := s.cfg.Chaos.BeforeRun; hook != nil {
		hook(j.id)
	}
	if d := s.cfg.Chaos.RunDelay; d > 0 {
		time.Sleep(d)
	}
	if raw, cycles, ok := s.cfg.Store.GetRaw(j.key); ok {
		// Warm hit: keep the verified on-disk bytes as the wire-form result
		// so status and result responses never decode or re-encode it.
		f.raw, f.cycles, f.source = raw, cycles, client.SourceStore
		if s.m != nil {
			s.m.hits.Inc()
		}
		return
	}
	if s.cfg.Store != nil && s.m != nil {
		s.m.misses.Inc()
	}
	// The leader's context is cancelable (Server.Cancel, the steal-cancel)
	// and bounded by the job's deadline when it has one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !j.deadline.IsZero() {
		var cancelDL context.CancelFunc
		ctx, cancelDL = context.WithDeadline(ctx, j.deadline)
		defer cancelDL()
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	select {
	case <-j.cancelCh:
		// Canceled between pop and lead: don't start the simulation.
		f.err = context.Canceled
		return
	default:
	}
	// The runner executes through its worker pool (sized to ours, so it
	// never queues beneath us), memoizes, and — when a store is attached —
	// writes the result back for the next daemon life. Its own store check
	// re-misses (we just checked), which is one cheap stat call.
	runs, err := s.runner.RunAll([]eval.RunRequest{{Cfg: j.cfg, Spec: j.spec, Faults: j.plan, Fidelity: j.fidelity, Ctx: ctx}})
	if err != nil {
		f.err = err
		return
	}
	f.res, f.cycles, f.source = runs[0], runs[0].Cycles, client.SourceSim
}

// journalState maps a terminal client state to its journal done-state.
func journalState(state string) string {
	switch state {
	case client.StateFailed:
		return "failed"
	case client.StateExpired:
		return "expired"
	case client.StateCanceled:
		return "canceled"
	}
	return "done"
}

// finish publishes a flight's outcome to the job, the journal, and the
// metrics. A deadline-exceeded error terminates as "expired", anything else
// as "failed".
func (j *job) finish(s *Server, f *flight, source string) {
	j.mu.Lock()
	j.finished = time.Now()
	j.source = source
	if f.err != nil {
		switch {
		case errors.Is(f.err, context.DeadlineExceeded):
			j.state = client.StateExpired
		case errors.Is(f.err, context.Canceled):
			j.state = client.StateCanceled
		default:
			j.state = client.StateFailed
		}
		j.err = f.err
	} else {
		j.state = client.StateDone
		j.res = f.res
		j.raw = f.raw
		j.cycles = f.cycles
	}
	total := j.finished.Sub(j.submitted).Seconds()
	run := j.finished.Sub(j.started).Seconds()
	state := j.state
	j.mu.Unlock()
	j.markTerminal()

	if s.m != nil {
		switch state {
		case client.StateFailed:
			s.m.failed.Inc()
		case client.StateExpired:
			s.m.expired.Inc()
		case client.StateCanceled:
			s.m.canceled.Inc()
		default:
			s.m.done.Inc()
		}
		s.m.jobLatency.Observe(total)
		s.m.waitLatency.Observe(run)
	}
	s.mu.Lock()
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.id, State: journalState(state)})
	s.maybeCompactLocked()
	s.mu.Unlock()
	s.logf("%s %s source=%s total=%.3fs", state, j.id, source, total)
}

// journalLocked appends one non-accept record best-effort: a failure flips
// the server unhealthy (durability is compromised) but does not block the
// job — its terminal state is already decided, and the store still carries
// results. A later successful append heals journalErr. The caller holds
// s.mu; journal appends are serialized under it so runtime compaction's
// live-set snapshot can never race a done record.
func (s *Server) journalLocked(rec journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(rec); err != nil {
		s.journalErr = err
		s.logf("journal: append %s %s: %v", rec.Op, rec.ID, err)
		return
	}
	s.journalErr = nil
	if s.m != nil {
		s.m.jnlAppends.Inc()
		s.m.jnlRecords.Set(float64(s.jnl.Records()))
	}
}

// maybeCompactLocked rewrites the journal down to the live set once dead
// records dominate it, so a long-lived daemon's journal stays proportional
// to its backlog instead of its history. The caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if s.jnl == nil || !s.jnl.ShouldCompact() {
		return
	}
	var live []journal.LiveJob
	for _, j := range s.jobs {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case client.StateQueued, client.StateRunning, client.StateRequeued:
			lj := journal.LiveJob{ID: j.id, Req: j.rawReq, Started: state == client.StateRunning}
			if !j.deadline.IsZero() {
				lj.Deadline = j.deadline.UnixMilli()
			}
			live = append(live, lj)
		}
	}
	if err := s.jnl.Compact(live); err != nil {
		s.journalErr = err
		s.logf("journal: compact: %v", err)
		return
	}
	s.journalErr = nil
	if s.m != nil {
		s.m.jnlCompactions.Inc()
		s.m.jnlRecords.Set(float64(s.jnl.Records()))
	}
	s.logf("journal: compacted to %d live records", len(live))
}

// statusLocked renders a job status snapshot; the server lock must be held
// (for the queue-ahead count).
func (s *Server) statusLocked(j *job) client.JobStatus {
	j.mu.Lock()
	st := client.JobStatus{
		ID:          j.id,
		State:       j.state,
		Benchmark:   j.spec.Name,
		Org:         j.cfg.Org.String(),
		Priority:    lanes[j.lane],
		Fidelity:    backend.Display(j.fidelity),
		Key:         j.key,
		Source:      j.source,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		st.DeadlineAt = &t
	}
	if j.res != nil {
		st.Cycles = j.res.Cycles
	} else {
		st.Cycles = j.cycles // raw store hits carry cycles without a decode
	}
	j.mu.Unlock()
	if st.State == client.StateQueued {
		ahead := 0
	scan:
		for lane := 0; lane <= j.lane; lane++ {
			for _, q := range s.queues[lane] {
				if q == j {
					break scan
				}
				ahead++
			}
		}
		st.QueueAhead = ahead
	}
	return st
}

// Status returns the status of one job.
func (s *Server) Status(id string) (client.JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return client.JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Result returns a finished job's result. Jobs served raw from the store
// decode lazily here — HTTP consumers go through ResultRaw and never pay the
// decode; only in-process Go callers do, once, cached on the job.
func (s *Server) Result(id string) (*stats.Run, client.JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, client.JobStatus{}, false
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	j.mu.Lock()
	res := j.res
	if res == nil && len(j.raw) > 0 {
		var run stats.Run
		if err := json.Unmarshal(j.raw, &run); err == nil {
			j.res = &run
			res = &run
		}
	}
	j.mu.Unlock()
	return res, st, true
}

// ResultRaw returns a finished job's result in canonical wire form: store
// hits hand back the verified on-disk bytes untouched, fresh simulations
// marshal once and cache the bytes on the job. Nil raw with ok=true means
// the job exists but holds no result (not terminal, or failed).
func (s *Server) ResultRaw(id string) (json.RawMessage, client.JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, client.JobStatus{}, false
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	return j.rawResult(), st, true
}

// rawResult returns the job's result bytes, marshaling res once on demand.
func (j *job) rawResult() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.raw == nil && j.res != nil {
		if b, err := json.Marshal(j.res); err == nil {
			j.raw = b
		}
	}
	return j.raw
}

// DoneChan exposes a job's terminal-state channel to the watch endpoint: it
// is closed exactly once when the job reaches a terminal state.
func (s *Server) DoneChan(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.doneCh, true
}

// HealthSnapshot summarizes the server for /v1/healthz.
func (s *Server) HealthSnapshot() client.Health {
	now := time.Now()
	s.mu.Lock()
	state, reasons := s.healthLocked(now)
	h := client.Health{
		Status:         state,
		Reasons:        reasons,
		Draining:       s.draining,
		Workers:        s.cfg.Workers,
		Inflight:       s.inflight,
		QueueDepth:     s.queued,
		Jobs:           len(s.jobs),
		OldestQueuedMS: s.oldestQueuedLocked(now).Milliseconds(),
		RecoveryErrors: s.recoveryErrors,
	}
	if s.jnl != nil {
		h.JournalRecords = s.jnl.Records()
		h.JournalLive = s.jnl.Live()
	}
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		h.StoreObjects = st.Len()
		h.StoreBytes = st.SizeBytes()
		h.StoreCorrupt = st.Corrupt()
	}
	return h
}

// requeueFile is the legacy (pre-journal) on-disk drain format.
type requeueFile struct {
	Jobs []requeuedJob `json:"jobs"`
}

type requeuedJob struct {
	ID  string            `json:"id"`
	Req client.JobRequest `json:"request"`
}

// Drain stops accepting jobs, lets in-flight jobs finish, and deals with
// the queue: under a journal the queued jobs simply stay live in it (state
// "requeued"; the next life's Recover re-enqueues them) and a clean
// shutdown mark is appended once the workers are idle, so replay can tell a
// graceful drain from a crash. Unjournaled with a RequeuePath, the queue
// spills to the legacy requeue file; with neither, it executes to
// completion. Drain returns once the workers are idle or ctx expires — an
// expired drain writes no shutdown mark, which is the truth: jobs were
// still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true

	var spill []*job
	if s.jnl != nil || s.cfg.RequeuePath != "" {
		for lane := range s.queues {
			for _, j := range s.queues[lane] {
				spill = append(spill, j)
				if s.m != nil {
					s.m.queueDepth[lane].Add(-1)
				}
			}
			s.queues[lane] = nil
		}
		s.queued = 0
	}
	s.closed = true
	journaled := s.jnl != nil
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range spill {
		j.mu.Lock()
		j.state = client.StateRequeued
		j.mu.Unlock()
	}
	if len(spill) > 0 {
		if !journaled {
			f := requeueFile{Jobs: make([]requeuedJob, len(spill))}
			for i, j := range spill {
				f.Jobs[i] = requeuedJob{ID: j.id, Req: j.req}
			}
			if err := writeJSONAtomic(s.cfg.RequeuePath, f); err != nil {
				return fmt.Errorf("server: persisting %d queued jobs: %w", len(spill), err)
			}
			s.logf("drain: requeued %d queued jobs to %s", len(spill), s.cfg.RequeuePath)
		} else {
			s.logf("drain: %d queued jobs stay live in the journal", len(spill))
		}
		if s.m != nil {
			s.m.requeued.Add(float64(len(spill)))
		}
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		if journaled {
			s.mu.Lock()
			s.journalLocked(journal.Record{Op: journal.OpMark, State: journal.MarkShutdown})
			err := s.jnl.Close()
			s.mu.Unlock()
			if err != nil {
				return fmt.Errorf("server: closing journal: %w", err)
			}
		}
		s.logf("drain: workers idle")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// Recover restores jobs from previous daemon lives. With a JournalPath it
// opens the journal (replaying and compacting it) and re-enqueues every
// accepted-but-unfinished job under its original ID and absolute deadline —
// this is what makes an accept durable across kill -9. It then imports any
// legacy requeue file left by a pre-journal drain and deletes it. Corrupt
// journal records and unrestorable jobs are counted (healthz
// recovery_errors, sacd_recovery_errors_total) rather than silently
// dropped. Call Recover once, between New and serving traffic; jobs
// submitted before it would bypass the journal.
func (s *Server) Recover() (int, error) {
	restored := 0
	if s.cfg.JournalPath != "" {
		jnl, rep, err := journal.Open(s.cfg.JournalPath, journal.Options{
			Sync:     s.cfg.JournalSync,
			SyncHook: s.cfg.Chaos.JournalSync,
		})
		if err != nil {
			return 0, fmt.Errorf("server: opening journal: %w", err)
		}
		s.mu.Lock()
		s.jnl = jnl
		s.recoveryErrors += rep.Corrupt
		s.mu.Unlock()
		if rep.Corrupt > 0 {
			if s.m != nil {
				s.m.recoveryErrs.Add(float64(rep.Corrupt))
			}
			s.logf("recover: %d corrupt journal records dropped", rep.Corrupt)
		}
		for _, lj := range rep.Live {
			var deadline time.Time
			if lj.Deadline != 0 {
				deadline = time.UnixMilli(lj.Deadline)
			}
			var req client.JobRequest
			if err := json.Unmarshal(lj.Req, &req); err != nil {
				s.dropUnrestorable(lj.ID, fmt.Errorf("undecodable request: %w", err))
				continue
			}
			if _, err := s.submit(req, lj.ID, deadline, true); err != nil {
				s.dropUnrestorable(lj.ID, err)
				continue
			}
			restored++
		}
		if s.m != nil {
			s.m.jnlRecords.Set(float64(jnl.Records()))
		}
		switch {
		case rep.CleanShutdown:
			s.logf("recover: clean shutdown, %d jobs resumed", restored)
		case rep.Records > 0 || rep.Corrupt > 0:
			s.logf("recover: previous life crashed; %d jobs resumed from journal", restored)
		}
	}
	n, err := s.importLegacyRequeue()
	return restored + n, err
}

// dropUnrestorable retires a journaled job that cannot be re-enqueued
// (undecodable or no-longer-valid request): it is marked done/failed in the
// journal so it stops being live, and counted as a recovery error so the
// loss is observable.
func (s *Server) dropUnrestorable(id string, err error) {
	s.logf("recover: dropping journaled job %s: %v", id, err)
	s.mu.Lock()
	s.recoveryErrors++
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: id, State: "failed"})
	s.mu.Unlock()
	if s.m != nil {
		s.m.recoveryErrs.Inc()
	}
}

// importLegacyRequeue restores jobs persisted by a pre-journal Drain and
// deletes the file.
func (s *Server) importLegacyRequeue() (int, error) {
	path := s.cfg.RequeuePath
	if path == "" {
		return 0, nil
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	var f requeueFile
	if err := json.Unmarshal(b, &f); err != nil {
		// A corrupt requeue file must not wedge startup; the jobs it held
		// are lost but the store may still carry their results.
		os.Remove(path)
		s.mu.Lock()
		s.recoveryErrors++
		s.mu.Unlock()
		if s.m != nil {
			s.m.recoveryErrs.Inc()
		}
		return 0, fmt.Errorf("server: corrupt requeue file %s dropped: %w", path, err)
	}
	os.Remove(path)
	n := 0
	for _, rj := range f.Jobs {
		if _, err := s.submit(rj.Req, rj.ID, time.Time{}, false); err != nil {
			s.logf("requeue: dropping %s: %v", rj.ID, err)
			continue
		}
		n++
	}
	if n > 0 {
		s.logf("requeue: restored %d jobs from %s", n, path)
	}
	return n, nil
}

// writeJSONAtomic writes v as JSON via a temp file + rename.
func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "sacd: "+format+"\n", args...)
}
