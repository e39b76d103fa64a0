// Package server is the sacd serving subsystem: what a single daemon adds
// to the shared job engine (internal/jobs). The engine owns the job records,
// the singleflight table, terminal transitions, retention and the /v1/jobs
// routes; this package supplies sacd's side of it —
//
//   - the admission gate: one bounded FIFO queue with 429 backpressure,
//     governed by a health-state machine (health.go) under which an
//     unhealthy or draining daemon refuses new work, all with Retry-After;
//   - the worker pool that pops the queue and drives each job through the
//     engine's flight table;
//   - the executor: persistent store lookup (verified bytes, served without
//     a decode), else a fresh simulation (backend.Run, every rung) written
//     back to the store — byte-identical to an in-process sac.Run of the
//     same cell. Estimate-rung cells answer in microseconds, so they run on
//     the accepting goroutine and never queue;
//   - crash-safe durability: every queued job is recorded in an append-only
//     journal (internal/journal) before the client sees its 202, its done
//     record is appended before its terminal state becomes visible, and a
//     daemon that dies by panic, OOM or kill -9 re-enqueues exactly the
//     accepted-but-unfinished set — under the original IDs and absolute
//     deadlines — on its next start.
package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Admission refusals, surfaced by the jobs routes with Retry-After.
var (
	// ErrQueueFull reports queue backpressure (HTTP 429).
	ErrQueueFull = &jobs.AdmitError{Code: http.StatusTooManyRequests, Msg: "server: job queue full"}
	// ErrDraining reports a draining daemon (HTTP 503).
	ErrDraining = &jobs.AdmitError{Code: http.StatusServiceUnavailable, Msg: "server: draining, not accepting jobs"}
	// ErrUnhealthy reports a daemon that cannot guarantee durability or
	// progress (HTTP 503).
	ErrUnhealthy = &jobs.AdmitError{Code: http.StatusServiceUnavailable, Msg: "server: unhealthy, not accepting jobs"}
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
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// DefaultFidelity is the rung applied to jobs that name none (the sacd
	// -fidelity flag); "" means exact. Unknown values fail at Submit.
	DefaultFidelity string
	// Deprecated: ChipWorkers has no effect (one stepper); removed with ROADMAP item 1.
	ChipWorkers int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the API mux
	// (the sacd -pprof flag), so CPU and heap profiles of live serving are
	// one curl away.
	EnablePprof bool
	// QueueCap bounds queued-but-not-started jobs; a full queue rejects
	// submissions with ErrQueueFull. 0 means 256.
	QueueCap int
	// Registry receives serving metrics (queue depth, job latency, inflight
	// workers); nil keeps them private to the server.
	Registry *obs.Registry
	// Log receives one line per job transition; nil is silent.
	Log io.Writer

	// chaos injects faults for the package's chaos tests; zero injects
	// nothing.
	chaos Chaos
}

// metrics are the server's obs series.
type metrics struct {
	queueDepth        *obs.Metric
	inflight          *obs.Metric
	rejected          *obs.Metric
	requeued          *obs.Metric
	recoveryErrs      *obs.Metric
	jnlAppends        *obs.Metric
	jnlCompactions    *obs.Metric
	jnlRecords        *obs.Metric
	healthState       *obs.Metric
	healthTransitions *obs.Metric
	replays           *obs.Metric
	identHits         *obs.Metric
	identMisses       *obs.Metric
	engine            jobs.Metrics
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	latency := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
	m := &metrics{
		inflight:          reg.Gauge("sacd_inflight_workers", "Jobs currently executing."),
		queueDepth:        reg.Gauge("sacd_queue_depth", "Queued jobs."),
		rejected:          reg.Counter("sacd_jobs_rejected_total", "Jobs rejected by backpressure, ill health, or drain."),
		requeued:          reg.Counter("sacd_jobs_requeued_total", "Queued jobs carried across a drain for the next daemon life."),
		recoveryErrs:      reg.Counter("sacd_recovery_errors_total", "Data-loss signals at startup recovery: corrupt journal records and unrestorable jobs."),
		jnlAppends:        reg.Counter("sacd_journal_appends_total", "Journal records appended."),
		jnlCompactions:    reg.Counter("sacd_journal_compactions_total", "Runtime journal compactions."),
		jnlRecords:        reg.Gauge("sacd_journal_records", "Records in the journal file."),
		healthState:       reg.Gauge("sacd_health_state", "Health state: 0 healthy, 1 degraded, 2 draining, 3 unhealthy."),
		healthTransitions: reg.Counter("sacd_health_transitions_total", "Health-state machine transitions."),
		replays:           reg.Counter("sacd_estimate_replays_total", "Estimate-rung replays run; cells that reused a batch-mate's profile are not counted."),
		identHits:         reg.Counter("sacd_identity_memo_hits_total", "Requests whose cell identity was remembered from an earlier request."),
		identMisses:       reg.Counter("sacd_identity_memo_misses_total", "Requests whose cell identity was resolved afresh."),
		engine: jobs.Metrics{
			Accepted:   reg.Counter("sacd_jobs_accepted_total", "Jobs accepted into the queue."),
			Done:       reg.Counter("sacd_jobs_done_total", "Jobs that finished successfully."),
			Failed:     reg.Counter("sacd_jobs_failed_total", "Jobs that finished with an error."),
			Expired:    reg.Counter("sacd_jobs_expired_total", "Jobs that missed their end-to-end deadline."),
			Canceled:   reg.Counter("sacd_jobs_canceled_total", "Jobs canceled by a client or a coordinator steal."),
			Dedup:      reg.Counter("sacd_dedup_joins_total", "Jobs that joined another job's in-flight simulation."),
			Memo:       reg.Counter("sacd_memo_recalls_total", "Jobs recalled from a result completed earlier this process."),
			Latency:    reg.Histogram("sacd_job_latency_seconds", "Submit-to-finish latency.", latency),
			RunLatency: reg.Histogram("sacd_job_run_seconds", "Start-to-finish execution latency.", latency),
			Retained:   reg.Gauge("sacd_jobs_retained", "Final statuses of finished jobs still queryable, as of the last retention sweep."),
		},
	}
	return m
}

// Server is one serving instance. The embedded table carries the jobs API:
// SubmitBatch, Watch, Status, Cancel.
type Server struct {
	*jobs.Table
	cfg  Config
	m    *metrics
	sims atomic.Int64 // simulations completed (store hits and joins excluded)
	// countReplay counts one estimate replay; built once, so a batch's
	// run-set costs no closure.
	countReplay func()

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*jobs.Job // FIFO
	// running maps each job a worker holds to when it was popped.
	running        map[string]time.Time
	jnl            *journal.Journal
	journalErr     error
	recoveryErrors int
	draining       bool
	closed         bool
	lastHealth     string

	// Health thresholds (health.go); tests shorten them.
	degradedQueueAge, stallAfter time.Duration

	stop chan struct{} // closed by Drain: stops the retention sweeper
	wg   sync.WaitGroup
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
	s := &Server{
		cfg:              cfg,
		m:                newMetrics(cfg.Registry),
		running:          make(map[string]time.Time),
		lastHealth:       client.HealthHealthy,
		degradedQueueAge: degradedQueueAge,
		stallAfter:       stallAfter,
		stop:             make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.countReplay = s.m.replays.Inc
	jcfg := jobs.Config{
		Resolve:    newResolver(cfg.DefaultFidelity, s.m.identHits, s.m.identMisses).Resolve,
		Admit:      s.admit,
		Execute:    s.execute,
		OnTerminal: s.journalDone,
		QueueAhead: s.queueAhead,
		RetryAfter: s.RetryAfterHint,
		Metrics:    s.m.engine,
	}
	if cfg.Log != nil {
		jcfg.Logf = s.logf
	}
	s.Table = jobs.New(jcfg)
	return s
}

// sweepEvery is the cadence of the retention sweep.
const sweepEvery = time.Minute

// Start launches the worker pool and the retention sweeper.
func (s *Server) Start() {
	s.wg.Add(s.cfg.Workers + 1)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.work()
	}
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.Sweep(now)
			}
		}
	}()
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// maxTimeoutMS is the largest timeout_ms whose duration a time.Duration holds
// (about 292 years).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// ResolveRequest validates req and resolves its simulation identity.
// defaultFidelity applies when the request names no rung ("" = exact).
// saccoord resolves with it; sacd's memoizing resolver must agree with it.
func ResolveRequest(req client.JobRequest, defaultFidelity string) (*jobs.Identity, error) {
	if err := checkJob(&req); err != nil {
		return nil, err
	}
	return identityOf(&req, effectiveFidelity(&req, defaultFidelity))
}

// checkJob validates what req asks of its job rather than of its cell —
// the deadline budget — so it runs on every request, memoized or not.
func checkJob(req *client.JobRequest) error {
	if req.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	// Past this the deadline's duration would wrap into one already passed.
	if req.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("timeout_ms %d exceeds the limit of %d", req.TimeoutMS, maxTimeoutMS)
	}
	return nil
}

// effectiveFidelity is the rung req names, else the daemon's default.
func effectiveFidelity(req *client.JobRequest, defaultFidelity string) string {
	if req.Fidelity == "" {
		return defaultFidelity
	}
	return req.Fidelity
}

// identityOf resolves the cell req names at rung fid: a pure function of
// the request's benchmark, org, preset, config and faults and of fid, which
// is what lets a resolver memoize it.
func identityOf(req *client.JobRequest, fid string) (*jobs.Identity, error) {
	fid, err := backend.Normalize(fid)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(req.Benchmark)
	if err != nil {
		return nil, err
	}
	org, err := llc.ParseOrg(req.Org)
	if err != nil {
		return nil, err
	}
	var cfg gpu.Config
	switch {
	case req.Config != nil:
		cfg = *req.Config
	case req.Preset == "" || req.Preset == "scaled":
		cfg = gpu.ScaledConfig()
	case req.Preset == "paper":
		cfg = gpu.PaperConfig()
	case req.Preset == "mcm":
		cfg = gpu.MCMConfig()
	case req.Preset == "multisocket":
		cfg = gpu.MultiSocketConfig()
	default:
		return nil, fmt.Errorf("unknown preset %q", req.Preset)
	}
	cfg = cfg.WithOrg(org)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var plan *fault.Plan
	if req.Faults != "" {
		if plan, err = fault.Parse(req.Faults); err != nil {
			return nil, err
		}
		if err := plan.Validate(cfg.FaultShape()); err != nil {
			return nil, err
		}
	}
	if fid == backend.Estimate && !plan.Empty() {
		return nil, fmt.Errorf("fidelity %q cannot apply a fault plan; use %q",
			backend.Estimate, backend.Exact)
	}
	return &jobs.Identity{
		Cfg: cfg, Spec: spec, Plan: plan, Fidelity: fid,
		Key: store.KeyAt(cfg, spec.Name, plan.Key(), fid),
	}, nil
}

// ---- admission ----

// admit is the engine's admission hook. The batch is gated as a unit under
// one lock pass — it can never half-land around a concurrent submitter — and
// then its estimate cells, which took no queue slot, run here on the
// accepting goroutine, so the submission response already carries their
// terminal states.
func (s *Server) admit(batch []*jobs.Job) error {
	inline, err := s.enqueue(batch)
	if err != nil {
		s.m.rejected.Add(float64(len(batch)))
		return err
	}
	s.runInline(inline)
	return nil
}

// enqueue applies the health-state machine and the queue cap to a batch and,
// if it passes, journals and queues every item that needs a worker. Estimate
// cells gate only on drain — they consume neither the workers nor the
// journal that health and the cap protect — and come back for the caller to
// run.
func (s *Server) enqueue(batch []*jobs.Job) (inline []*jobs.Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	health, _ := s.healthLocked(time.Now())
	var queued []*jobs.Job
	for _, j := range batch {
		if j.Fidelity == backend.Estimate {
			inline = append(inline, j)
		} else {
			queued = append(queued, j)
		}
	}
	if len(queued) > 0 {
		// Journal-driven unhealthiness is not a reject here: the accept
		// append below retries the disk, and its success is what heals
		// journalErr — otherwise an idle daemon would stay unhealthy forever
		// after a transient disk error.
		if health == client.HealthUnhealthy && s.journalErr == nil {
			return nil, ErrUnhealthy
		}
		if len(s.queue)+len(queued) > s.cfg.QueueCap {
			return nil, ErrQueueFull
		}
	}
	// A failed append refuses the batch whole before any of it is queued; an
	// accept already written resumes only in a later life.
	for _, j := range queued {
		if s.jnl == nil {
			break
		}
		rec := journal.Record{Op: journal.OpAccept, ID: j.ID, Req: client.AppendRequest(nil, &j.Req)}
		if !j.Deadline.IsZero() {
			rec.Deadline = j.Deadline.UnixMilli()
		}
		if err := s.jnl.Append(rec); err != nil {
			// The accept may not be durable: refuse to acknowledge it.
			// journalErr flips the health state to unhealthy so the client's
			// retry meets a 503 instead of a broken promise.
			s.journalErr = err
			return nil, fmt.Errorf("%w: %v", ErrUnhealthy, err)
		}
		s.noteAppendLocked()
	}
	for _, j := range queued {
		s.queueLocked(j)
	}
	return inline, nil
}

// queueLocked hands j to the worker pool. The caller holds s.mu.
func (s *Server) queueLocked(j *jobs.Job) {
	s.queue = append(s.queue, j)
	s.m.queueDepth.Add(1)
	s.cond.Signal()
}

// inlineBatch is the context an admitted batch's estimate cells execute
// under: never canceled, and carrying the batch's run-set, so the cells of
// one (machine, spec) replay once (backend.RunSet). It dies with the batch.
type inlineBatch struct {
	context.Context
	runs backend.RunSet
}

// runInline executes a batch's estimate cells, first occurrence of each key
// first so in-batch duplicates land on the store (a zero-copy raw hit)
// instead of simulating twice. They bypass the flight table: the store is
// their dedup. The cells that miss the store share one run-set, so a
// (machine, spec) replays once for every org and bandwidth point the batch
// prices. Each wave runs on min(Workers, len(wave)) goroutines pulling
// cells off a shared index; a wave one goroutine would run stays on the
// caller's.
func (s *Server) runInline(estimates []*jobs.Job) {
	batch := &inlineBatch{Context: context.Background(), runs: backend.RunSet{OnReplay: s.countReplay}}
	if len(estimates) == 1 {
		s.RunDirect(batch, estimates[0])
		return
	}
	var firsts, dups []*jobs.Job
	seen := make(map[string]bool, len(estimates))
	for _, j := range estimates {
		if seen[j.Key] {
			dups = append(dups, j)
			continue
		}
		seen[j.Key] = true
		firsts = append(firsts, j)
	}
	for _, wave := range [][]*jobs.Job{firsts, dups} {
		var next atomic.Int64
		drain := func() {
			for i := next.Add(1) - 1; i < int64(len(wave)); i = next.Add(1) - 1 {
				s.RunDirect(batch, wave[i])
			}
		}
		n := min(s.cfg.Workers, len(wave))
		if n <= 1 {
			drain()
			continue
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for range n {
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		wg.Wait()
	}
}

// queueAhead counts the jobs that pop before a still-queued j.
func (s *Server) queueAhead(j *jobs.Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == j {
			return i
		}
	}
	return len(s.queue)
}

// ---- workers ----

// work is one worker: pop, drive the job through the engine, repeat.
func (s *Server) work() {
	defer s.wg.Done()
	for j := s.pop(); j != nil; j = s.pop() {
		s.Run(j)
		s.mu.Lock()
		delete(s.running, j.ID)
		s.mu.Unlock()
		s.m.inflight.Add(-1)
	}
}

// pop blocks for the next job in FIFO order; nil means shut down. A job
// canceled or expired while it waited costs no execution: the engine settles
// it the moment the worker presents it.
func (s *Server) pop() *jobs.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 {
			j := s.queue[0]
			s.queue = s.queue[1:]
			s.m.queueDepth.Add(-1)
			s.running[j.ID] = time.Now()
			s.m.inflight.Add(1)
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// execute is the engine's executor: chaos hooks, then the shared
// store-backed simulate step on the backend. A warm hit's verified bytes are
// the wire-form result, so status and result responses never decode or
// re-encode it, and never touch a run-set. It runs on a worker for a flight
// leader and on the accepting goroutine for an estimate cell, which
// simulates through its batch's run-set; the engine contains its panics.
func (s *Server) execute(ctx context.Context, j *jobs.Job) jobs.Outcome {
	if hook := s.cfg.chaos.BeforeRun; hook != nil {
		hook(j.ID)
	}
	return jobs.Simulate(j, s.cfg.Store, func() (*stats.Run, error) {
		run := backend.Run
		if b, ok := ctx.(*inlineBatch); ok {
			run = b.runs.Run
		}
		res, err := run(j.Cfg, j.Spec, gpu.RunOpts{Faults: j.Plan, Fidelity: j.Fidelity, Ctx: ctx})
		if err == nil {
			s.sims.Add(1)
		}
		return res, err
	}, s.logf)
}

// ---- journal ----

// journalDone is the engine's durable hook: a journaled job's done record is
// on disk before anyone can observe its terminal state. A job the journal
// does not hold, an estimate cell, has nothing to record.
func (s *Server) journalDone(j *jobs.Job, state string, _ jobs.Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jnl == nil || !s.jnl.Holds(j.ID) {
		return
	}
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.ID, State: state})
	s.maybeCompactLocked()
}

// journalLocked appends one non-accept record best-effort: a failure flips
// the server unhealthy (durability is compromised) but does not block the
// job — its terminal state is already decided, and the store still carries
// results. A later successful append heals journalErr. The caller holds
// s.mu.
func (s *Server) journalLocked(rec journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(rec); err != nil {
		s.journalErr = err
		s.logf("journal: append %s %s: %v", rec.Op, rec.ID, err)
		return
	}
	s.noteAppendLocked()
}

func (s *Server) noteAppendLocked() {
	s.journalErr = nil
	s.m.jnlAppends.Inc()
	s.m.jnlRecords.Set(float64(s.jnl.Records()))
}

// maybeCompactLocked rewrites the journal down to its live set once dead
// records dominate it, so a long-lived daemon's journal stays proportional
// to its backlog instead of its history. The caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if !s.jnl.ShouldCompact() {
		return
	}
	if err := s.jnl.Compact(); err != nil {
		s.journalErr = err
		s.logf("journal: compact: %v", err)
		return
	}
	s.journalErr = nil
	s.m.jnlCompactions.Inc()
	n := s.jnl.Records()
	s.m.jnlRecords.Set(float64(n))
	s.logf("journal: compacted to %d live records", n)
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
		Inflight:       len(s.running),
		QueueDepth:     len(s.queue),
		Jobs:           s.Len(),
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

// Drain stops accepting jobs and lets in-flight jobs finish. Under a journal
// the queued jobs simply stay live in it (state "requeued"; the next life's
// Recover re-enqueues them) and a clean shutdown mark is appended once the
// workers are idle, so replay can tell a graceful drain from a crash.
// Unjournaled, the queue executes to completion. Drain returns once the
// workers are idle or ctx expires — an expired drain writes no shutdown
// mark, which is the truth: jobs were still in flight.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var carried []*jobs.Job
	if s.jnl != nil {
		carried, s.queue = s.queue, nil
		s.m.queueDepth.Add(-float64(len(carried)))
	}
	s.closed = true
	journaled := s.jnl != nil
	close(s.stop)
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range carried {
		s.Requeue(j)
	}
	if len(carried) > 0 {
		s.logf("drain: %d queued jobs stay live in the journal", len(carried))
		s.m.requeued.Add(float64(len(carried)))
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
// this is what makes an accept durable across kill -9. Restored jobs bypass
// the queue cap and the health gate: dropping them now would be the data loss
// the journal exists to prevent. Corrupt journal records and unrestorable
// jobs are counted (healthz recovery_errors, sacd_recovery_errors_total)
// rather than silently dropped. Call Recover once, between New and serving
// traffic; jobs submitted before it would bypass the journal.
func (s *Server) Recover() (int, error) {
	if s.cfg.JournalPath == "" {
		return 0, nil
	}
	jnl, rep, err := journal.Open(s.cfg.JournalPath, journal.Options{
		Sync:     s.cfg.JournalSync,
		SyncHook: s.cfg.chaos.JournalSync,
	})
	if err != nil {
		return 0, fmt.Errorf("server: opening journal: %w", err)
	}
	s.mu.Lock()
	s.jnl = jnl
	s.recoveryErrors += rep.Corrupt
	s.mu.Unlock()
	if rep.Corrupt > 0 {
		s.m.recoveryErrs.Add(float64(rep.Corrupt))
		s.logf("recover: %d corrupt journal records dropped", rep.Corrupt)
	}
	restored := 0
	for _, lj := range rep.Live {
		var deadline time.Time
		if lj.Deadline != 0 {
			deadline = time.UnixMilli(lj.Deadline)
		}
		var req client.JobRequest
		if err := client.Unmarshal(lj.Req, &req); err != nil {
			s.dropUnrestorable(lj.ID, fmt.Errorf("undecodable request: %w", err))
			continue
		}
		j, err := s.Restore(lj.ID, req, deadline)
		if err != nil {
			s.dropUnrestorable(lj.ID, err)
			continue
		}
		s.mu.Lock()
		// Open compacted the file to exactly the live set, so the accept is
		// already on disk.
		s.queueLocked(j)
		s.mu.Unlock()
		restored++
	}
	s.m.jnlRecords.Set(float64(jnl.Records()))
	switch {
	case rep.CleanShutdown:
		s.logf("recover: clean shutdown, %d jobs resumed", restored)
	case rep.Records > 0 || rep.Corrupt > 0:
		s.logf("recover: previous life crashed; %d jobs resumed from journal", restored)
	}
	return restored, nil
}

// dropUnrestorable retires a journaled job that cannot be re-enqueued
// (undecodable or no-longer-valid request): it is marked done/failed in the
// journal so it stops being live, and counted as a recovery error so the
// loss is observable.
func (s *Server) dropUnrestorable(id string, err error) {
	s.logf("recover: dropping journaled job %s: %v", id, err)
	s.mu.Lock()
	s.recoveryErrors++
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: id, State: client.StateFailed})
	s.mu.Unlock()
	s.m.recoveryErrs.Inc()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "sacd: "+format+"\n", args...)
}
