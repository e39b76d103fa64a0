// Package server is the sacd serving subsystem: what a single daemon adds
// to the shared job engine (internal/jobs). The engine owns the job records,
// the singleflight table, terminal transitions, retention and the /v1/jobs
// routes; this package supplies sacd's side of it —
//
//   - the admission gate: a bounded queue with three priority lanes and 429
//     backpressure, governed by a health-state machine (health.go) under
//     which a degraded daemon sheds batch-lane traffic and an unhealthy or
//     draining one sheds everything, all with Retry-After;
//   - the worker pool that pops the lanes and drives each job through the
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
	"encoding/json"
	"errors"
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
	// ErrShedding reports a degraded daemon shedding batch-lane work
	// (HTTP 429).
	ErrShedding = &jobs.AdmitError{Code: http.StatusTooManyRequests, Msg: "server: degraded, shedding batch-lane jobs"}
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
	// latency, inflight workers); nil keeps them private to the server.
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

// laneOf is laneIndex for a job ResolveRequest already validated.
func laneOf(j *jobs.Job) int {
	lane, _ := laneIndex(j.Req.Priority)
	return lane
}

// metrics are the server's obs series.
type metrics struct {
	queueDepth        [3]*obs.Metric
	inflight          *obs.Metric
	rejected          *obs.Metric
	shed              *obs.Metric
	hits              *obs.Metric
	misses            *obs.Metric
	requeued          *obs.Metric
	recoveryErrs      *obs.Metric
	jnlAppends        *obs.Metric
	jnlCompactions    *obs.Metric
	jnlRecords        *obs.Metric
	healthState       *obs.Metric
	healthTransitions *obs.Metric
	engine            jobs.Metrics
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	latency := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}
	m := &metrics{
		inflight:          reg.Gauge("sacd_inflight_workers", "Jobs currently executing."),
		rejected:          reg.Counter("sacd_jobs_rejected_total", "Jobs rejected by backpressure, shedding, or drain."),
		shed:              reg.Counter("sacd_jobs_shed_total", "Batch-lane jobs shed while degraded."),
		hits:              reg.Counter("sacd_cache_hits_total", "Jobs served from the persistent result store."),
		misses:            reg.Counter("sacd_cache_misses_total", "Jobs that missed the store and simulated."),
		requeued:          reg.Counter("sacd_jobs_requeued_total", "Queued jobs carried across a drain for the next daemon life."),
		recoveryErrs:      reg.Counter("sacd_recovery_errors_total", "Data-loss signals at startup recovery: corrupt journal records and unrestorable jobs."),
		jnlAppends:        reg.Counter("sacd_journal_appends_total", "Journal records appended."),
		jnlCompactions:    reg.Counter("sacd_journal_compactions_total", "Runtime journal compactions."),
		jnlRecords:        reg.Gauge("sacd_journal_records", "Records in the journal file."),
		healthState:       reg.Gauge("sacd_health_state", "Health state: 0 healthy, 1 degraded, 2 draining, 3 unhealthy."),
		healthTransitions: reg.Counter("sacd_health_transitions_total", "Health-state machine transitions."),
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
		},
	}
	for i, lane := range lanes {
		m.queueDepth[i] = reg.Gauge("sacd_queue_depth", "Queued jobs per priority lane.", obs.L("lane", lane))
	}
	return m
}

// Server is one serving instance. The embedded table carries the jobs API:
// Submit, SubmitBatch, Status, ResultRaw, Cancel.
type Server struct {
	*jobs.Table
	cfg  Config
	m    *metrics
	sims atomic.Int64 // simulations completed (store hits and joins excluded)

	mu     sync.Mutex
	cond   *sync.Cond
	queues [3][]*jobs.Job
	queued int
	// running maps each job a worker holds to when it was popped.
	running map[string]time.Time
	// live is the journal's live set as this process knows it: journaled
	// accepts without a done record yet. Compaction rewrites the file to it.
	live           map[string]*jobs.Job
	jnl            *journal.Journal
	journalErr     error
	recoveryErrors int
	draining       bool
	closed         bool
	lastHealth     string

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
		cfg:        cfg,
		m:          newMetrics(cfg.Registry),
		running:    make(map[string]time.Time),
		live:       make(map[string]*jobs.Job),
		lastHealth: client.HealthHealthy,
		stop:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	jcfg := jobs.Config{
		Resolve: func(req client.JobRequest) (jobs.Identity, error) {
			return ResolveRequest(req, cfg.DefaultFidelity)
		},
		Admit:      s.admit,
		Execute:    s.execute,
		OnStart:    s.journalStart,
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

// ResolvedJob is a job request validated and resolved to its full
// simulation identity. The cluster coordinator resolves submissions through
// ResolveRequest too, to validate them and to compute consistent-hash
// placement on Key without running a Server of its own.
type ResolvedJob = jobs.Identity

// maxTimeoutMS is the largest timeout_ms whose duration a time.Duration holds
// (about 292 years).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// ResolveRequest validates req and resolves its simulation identity.
// defaultFidelity applies when the request names no rung ("" = exact).
func ResolveRequest(req client.JobRequest, defaultFidelity string) (ResolvedJob, error) {
	if _, err := laneIndex(req.Priority); err != nil {
		return ResolvedJob{}, err
	}
	if req.TimeoutMS < 0 {
		return ResolvedJob{}, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	// Past this the deadline's duration would wrap into one already passed.
	if req.TimeoutMS > maxTimeoutMS {
		return ResolvedJob{}, fmt.Errorf("timeout_ms %d exceeds the limit of %d", req.TimeoutMS, maxTimeoutMS)
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
		if errors.Is(err, ErrShedding) {
			s.m.shed.Inc()
		}
		return err
	}
	s.runInline(inline)
	return nil
}

// enqueue applies the health-state machine and the queue cap to a batch and,
// if it passes, journals and queues every item that needs a worker. Estimate
// cells gate only on drain — they consume neither of the things shedding and
// the cap protect — and come back for the caller to run.
func (s *Server) enqueue(batch []*jobs.Job) (inline []*jobs.Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	health, _ := s.healthLocked(time.Now())
	nQueued := 0
	for _, j := range batch {
		if j.Fidelity == backend.Estimate {
			continue
		}
		nQueued++
		switch {
		case health == client.HealthUnhealthy && s.journalErr == nil:
			// Journal-driven unhealthiness is not a reject here: the accept
			// append below retries the disk, and its success is what heals
			// journalErr — otherwise an idle daemon would stay unhealthy
			// forever after a transient disk error.
			return nil, ErrUnhealthy
		case health == client.HealthDegraded && laneOf(j) == 2:
			return nil, ErrShedding
		}
	}
	if nQueued > 0 && s.queued+nQueued > s.cfg.QueueCap {
		return nil, ErrQueueFull
	}
	for _, j := range batch {
		if j.Fidelity == backend.Estimate {
			inline = append(inline, j)
			continue
		}
		if err := s.enqueueLocked(j, false); err != nil {
			// A journal append failed mid-batch: earlier items are journaled
			// and will run (content-addressed results make that harmless on
			// retry); the batch as a whole reports the failure.
			return nil, err
		}
	}
	return inline, nil
}

// enqueueLocked journals the accept (unless journaled marks it already on
// disk) and queues the job in its lane. The caller holds s.mu; on error
// nothing was enqueued.
func (s *Server) enqueueLocked(j *jobs.Job, journaled bool) error {
	if s.jnl != nil {
		if !journaled {
			lj, err := liveRecord(j, false)
			if err != nil {
				return err
			}
			rec := journal.Record{Op: journal.OpAccept, ID: lj.ID, Req: lj.Req, Deadline: lj.Deadline}
			if jerr := s.jnl.Append(rec); jerr != nil {
				// The accept may not be durable: refuse to acknowledge it.
				// journalErr flips the health state to unhealthy so the
				// client's retry meets a 503 instead of a broken promise.
				s.journalErr = jerr
				return fmt.Errorf("%w: %v", ErrUnhealthy, jerr)
			}
			s.noteAppendLocked()
		}
		s.live[j.ID] = j
	}
	lane := laneOf(j)
	s.queues[lane] = append(s.queues[lane], j)
	s.queued++
	s.m.queueDepth[lane].Add(1)
	s.cond.Signal()
	return nil
}

// liveRecord renders a job the way the journal files it.
func liveRecord(j *jobs.Job, started bool) (journal.LiveJob, error) {
	raw, err := json.Marshal(j.Req)
	if err != nil {
		return journal.LiveJob{}, fmt.Errorf("server: encoding request: %w", err)
	}
	lj := journal.LiveJob{ID: j.ID, Req: raw, Started: started}
	if !j.Deadline.IsZero() {
		lj.Deadline = j.Deadline.UnixMilli()
	}
	return lj, nil
}

// runInline executes a batch's estimate cells, first occurrence of each key
// first so in-batch duplicates land on the store (a zero-copy raw hit)
// instead of simulating twice. They bypass the flight table: the store is
// their dedup. Each wave runs on min(Workers, len(wave)) goroutines pulling
// cells off a shared index; a wave one goroutine would run stays on the
// caller's.
func (s *Server) runInline(estimates []*jobs.Job) {
	if len(estimates) == 1 {
		s.RunDirect(estimates[0])
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
				s.RunDirect(wave[i])
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
	ahead := 0
	for lane := 0; lane <= laneOf(j); lane++ {
		for _, q := range s.queues[lane] {
			if q == j {
				return ahead
			}
			ahead++
		}
	}
	return ahead
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

// pop blocks for the next job in priority order; nil means shut down. A job
// canceled or expired while it waited costs no execution: the engine settles
// it the moment the worker presents it.
func (s *Server) pop() *jobs.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for lane := range s.queues {
			if q := s.queues[lane]; len(q) > 0 {
				j := q[0]
				s.queues[lane] = q[1:]
				s.queued--
				s.m.queueDepth[lane].Add(-1)
				s.running[j.ID] = time.Now()
				s.m.inflight.Add(1)
				return j
			}
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
// re-encode it. It runs on a worker for a flight leader and on the accepting
// goroutine for an estimate cell; the engine contains its panics.
func (s *Server) execute(ctx context.Context, j *jobs.Job) jobs.Outcome {
	if hook := s.cfg.Chaos.BeforeRun; hook != nil {
		hook(j.ID)
	}
	if d := s.cfg.Chaos.RunDelay; d > 0 {
		time.Sleep(d)
	}
	out := jobs.Simulate(j, s.cfg.Store, func() (*stats.Run, error) {
		if s.cfg.Store != nil {
			s.m.misses.Inc()
		}
		res, err := backend.Run(j.Cfg, j.Spec, gpu.RunOpts{Faults: j.Plan, Fidelity: j.Fidelity, Ctx: ctx})
		if err == nil {
			s.sims.Add(1)
		}
		return res, err
	}, s.logf)
	if out.Source == client.SourceStore {
		s.m.hits.Inc()
	}
	return out
}

// ---- journal ----

// journalStart is the engine's OnStart hook.
func (s *Server) journalStart(j *jobs.Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[j.ID]; ok {
		s.journalLocked(journal.Record{Op: journal.OpStart, ID: j.ID})
	}
}

// journalDone is the engine's durable hook: a journaled job's done record is
// on disk before anyone can observe its terminal state.
func (s *Server) journalDone(j *jobs.Job, state string, _ jobs.Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[j.ID]; !ok {
		return
	}
	delete(s.live, j.ID)
	s.journalLocked(journal.Record{Op: journal.OpDone, ID: j.ID, State: state})
	s.maybeCompactLocked()
}

// journalLocked appends one non-accept record best-effort: a failure flips
// the server unhealthy (durability is compromised) but does not block the
// job — its terminal state is already decided, and the store still carries
// results. A later successful append heals journalErr. The caller holds
// s.mu; appends and compaction are serialized under it, so the live set a
// compaction writes can never miss a record appended beside it.
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

// maybeCompactLocked rewrites the journal down to the live set once dead
// records dominate it, so a long-lived daemon's journal stays proportional
// to its backlog instead of its history. The caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if s.jnl == nil || !s.jnl.ShouldCompact() {
		return
	}
	live := make([]journal.LiveJob, 0, len(s.live))
	for id, j := range s.live {
		_, started := s.running[id]
		lj, err := liveRecord(j, started)
		if err != nil {
			s.logf("journal: compact: %v", err)
			return
		}
		live = append(live, lj)
	}
	if err := s.jnl.Compact(live); err != nil {
		s.journalErr = err
		s.logf("journal: compact: %v", err)
		return
	}
	s.journalErr = nil
	s.m.jnlCompactions.Inc()
	s.m.jnlRecords.Set(float64(s.jnl.Records()))
	s.logf("journal: compacted to %d live records", len(live))
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
		QueueDepth:     s.queued,
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
		for lane := range s.queues {
			carried = append(carried, s.queues[lane]...)
			s.m.queueDepth[lane].Add(-float64(len(s.queues[lane])))
			s.queues[lane] = nil
		}
		s.queued = 0
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
// the queue cap and load shedding: dropping them now would be the data loss
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
		if err := json.Unmarshal(lj.Req, &req); err != nil {
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
		_ = s.enqueueLocked(j, true)
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
