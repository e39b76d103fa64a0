// Package cluster is the distributed sweep fabric: what the saccoord
// coordinator adds to the shared job engine (internal/jobs), plus the
// worker-side Agent that enrolls a sacd in a fleet. The engine owns the job
// records, the fleet-wide singleflight, terminal transitions, retention and
// the /v1/jobs routes — a coordinator answers them exactly as a sacd does, so
// any client.Client works against either. This package supplies the
// executor: consistent-hash placement of each cell on the worker that owns
// its store key (ring.go), dispatch over the worker's own jobs API in
// submit groups that each long-poll their own unfinished jobs (lanes.go),
// and stealing from workers that die, lapse or leave — and the worker table
// behind it (registration, heartbeats, health-steered routing).
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Coordinator. The zero value is usable: defaults fill in.
type Config struct {
	// Heartbeat is the cadence workers must beat at (advertised to them at
	// registration). Default 2s.
	Heartbeat time.Duration
	// Lapse is how long a worker may stay silent before it is declared gone,
	// removed from the ring, and its in-flight dispatches stolen. Default
	// 3×Heartbeat.
	Lapse time.Duration
	// DefaultFidelity applies to requests that name no rung ("" = exact).
	DefaultFidelity string
	// Registry, when set, receives the coordinator's fleet metrics.
	Registry *obs.Registry
	// Log receives one line per lifecycle event; nil discards.
	Log io.Writer
	// Dial builds the client for one worker URL; tests substitute it. Nil
	// selects client.New with fast retries (the coordinator has its own
	// retry layer — stealing — so per-call retries stay short).
	Dial func(url string) *client.Client
}

// maxAttempts bounds dispatch attempts per job; every attempt after the
// first is a steal.
const maxAttempts = 4

// errPermanent marks a dispatch failure that stealing cannot fix (the
// simulation itself failed deterministically); the job reports it instead of
// burning the remaining attempts on other workers.
var errPermanent = errors.New("permanent job failure")

// ErrClosed refuses submissions after Close (HTTP 503).
var ErrClosed = &jobs.AdmitError{Code: http.StatusServiceUnavailable, Msg: "coordinator closed"}

// ErrNoWorkers is the terminal error for a job whose deadline passed (or
// whose coordinator closed) while no eligible worker was registered.
var ErrNoWorkers = errors.New("no eligible workers")

// workerEntry is the coordinator's view of one registered worker.
type workerEntry struct {
	info       client.WorkerInfo
	cl         *client.Client
	once       *client.Client // cl without retries, for a group's submit
	health     string         // last self-reported health; "gone" after lapse/deregister
	lastBeat   time.Time
	gone       bool
	inflight   int
	dispatched int64
	// attempts maps flight key → the cancel func of the dispatch attempt
	// currently running on this worker, so a lapse or deregistration can
	// abort them all and trigger steals immediately.
	attempts map[string]context.CancelFunc
	lanes    *lanes
}

// coordMetrics are the coordinator's obs series.
type coordMetrics struct {
	workersLive *obs.Metric
	dispatches  *obs.Metric
	steals      *obs.Metric
	rebalances  *obs.Metric
	dedup       *obs.Metric
}

// Coordinator owns placement for a fleet of sacd workers. The embedded table
// carries the jobs API: SubmitBatch, Watch, Status, Cancel.
type Coordinator struct {
	*jobs.Table
	cfg  Config
	ring *Ring
	m    coordMetrics

	mu      sync.Mutex
	workers map[string]*workerEntry
	closed  bool

	closeCh chan struct{}
	wg      sync.WaitGroup
}

// New returns a started Coordinator (its lapse watcher is running); Close
// stops it.
func New(cfg Config) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Lapse <= 0 {
		cfg.Lapse = 3 * cfg.Heartbeat
	}
	if cfg.Dial == nil {
		cfg.Dial = func(url string) *client.Client {
			// Short per-call retry budget: the steal loop is the real retry
			// layer, and a dead worker should fail into it fast.
			return client.New(url, client.WithRetries(1), client.WithBackoff(50*time.Millisecond, 200*time.Millisecond))
		}
	}
	// Without a Registry the series stay private: Fleet reads its counters
	// from them either way.
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(0),
		workers: make(map[string]*workerEntry),
		closeCh: make(chan struct{}),
		m: coordMetrics{
			workersLive: reg.Gauge("saccoord_workers_live", "Workers currently in the placement ring."),
			dispatches:  reg.Counter("saccoord_dispatches_total", "Dispatch attempts sent to workers."),
			steals:      reg.Counter("saccoord_steals_total", "Dispatches re-routed after a worker died, lapsed, or timed out."),
			rebalances:  reg.Counter("saccoord_rebalances_total", "Ring rebalances (worker joins and departures)."),
			dedup:       reg.Counter("saccoord_dedup_joins_total", "Jobs that joined another job's in-flight execution fleet-wide."),
		},
	}
	failed := reg.Counter("saccoord_jobs_failed_total", "Jobs that reached a non-done terminal state.")
	jcfg := jobs.Config{
		Resolve: func(req client.JobRequest) (*jobs.Identity, error) {
			return server.ResolveRequest(req, cfg.DefaultFidelity)
		},
		Admit:   c.admit,
		Execute: c.execute,
		Metrics: jobs.Metrics{
			Accepted: reg.Counter("saccoord_jobs_total", "Jobs accepted by the coordinator."),
			Failed:   failed, Expired: failed, Canceled: failed,
			Dedup: c.m.dedup,
			Memo:  reg.Counter("saccoord_memo_recalls_total", "Jobs answered from an already-completed flight."),
			Latency: reg.Histogram("saccoord_job_seconds", "Job latency from accept to terminal state.",
				[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}),
			Retained: reg.Gauge("saccoord_jobs_retained", "Final statuses of finished jobs still queryable, as of the last retention sweep."),
		},
	}
	if cfg.Log != nil {
		jcfg.Logf = c.logf
	}
	c.Table = jobs.New(jcfg)
	c.wg.Add(1)
	go c.watchLapses()
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "saccoord: "+format+"\n", args...)
	}
}

// ---- worker table ----

// Register adds (or revives) a worker and returns the heartbeat contract.
func (c *Coordinator) Register(info client.WorkerInfo) (client.RegisterResponse, error) {
	if info.ID == "" || info.URL == "" {
		return client.RegisterResponse{}, fmt.Errorf("worker registration needs id and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return client.RegisterResponse{}, ErrClosed
	}
	w := c.workers[info.ID]
	if w == nil {
		w = &workerEntry{attempts: make(map[string]context.CancelFunc)}
		w.lanes = newLanes(c, w, info.ID)
		c.workers[info.ID] = w
	}
	w.info = info
	w.cl = c.cfg.Dial(info.URL)
	w.once = w.cl.NoRetry()
	w.health = client.HealthHealthy
	w.lastBeat = time.Now()
	w.gone = false
	c.ring.Add(info.ID)
	c.noteRingLocked()
	c.logf("worker %s registered at %s (%s)", info.ID, info.URL, c.ring)
	return client.RegisterResponse{
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
		LapseMS:     c.cfg.Lapse.Milliseconds(),
	}, nil
}

// Heartbeat records one worker heartbeat; ok is false for unknown workers
// (the agent re-registers on that signal). A draining or unhealthy worker
// stays registered but stops receiving new placements; one that lapsed and
// comes back is revived into the ring.
func (c *Coordinator) Heartbeat(id string, h client.Health) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return false
	}
	w.lastBeat = time.Now()
	if h.Status != "" {
		w.health = h.Status
	}
	if w.gone {
		w.gone = false
		if h.Status == "" {
			// A bare heartbeat must not leave the revived worker stuck at
			// health "gone", or pickWorker would never route to it.
			w.health = client.HealthHealthy
		}
		c.ring.Add(id)
		c.noteRingLocked()
		c.logf("worker %s revived by heartbeat (%s)", id, c.ring)
	}
	return true
}

// Deregister removes a worker gracefully: out of the ring, its in-flight
// dispatches stolen. ok is false for unknown workers.
func (c *Coordinator) Deregister(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return false
	}
	c.markGoneLocked(id, w, "deregistered")
	return true
}

// markGoneLocked declares a worker dead: removed from the ring and every
// dispatch attempt running on it canceled, which bounces those jobs back
// into the steal loop immediately.
func (c *Coordinator) markGoneLocked(id string, w *workerEntry, why string) {
	if w.gone {
		return
	}
	w.gone = true
	w.health = "gone"
	c.ring.Remove(id)
	c.noteRingLocked()
	n := len(w.attempts)
	for key, cancel := range w.attempts {
		cancel()
		delete(w.attempts, key)
	}
	c.logf("worker %s gone (%s), %d dispatches stolen (%s)", id, why, n, c.ring)
}

// noteRingLocked refreshes the rebalance counter and live-worker gauge.
func (c *Coordinator) noteRingLocked() {
	c.m.rebalances.Inc()
	c.m.workersLive.Set(float64(c.ring.Len()))
}

// watchLapses is the heartbeat-lapse sweeper: a worker silent past Lapse is
// declared gone (fast failure detection for SIGKILLed workers whose jobs
// would otherwise hang until their deadline). The same tick runs
// the engine's retention sweep; workers' content-addressed stores keep
// evicted results one cheap re-dispatch away.
func (c *Coordinator) watchLapses() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case now := <-t.C:
			c.mu.Lock()
			for id, w := range c.workers {
				if !w.gone && now.Sub(w.lastBeat) > c.cfg.Lapse {
					c.markGoneLocked(id, w, fmt.Sprintf("heartbeat lapse >%s", c.cfg.Lapse))
				}
			}
			c.mu.Unlock()
			c.Sweep(now)
		}
	}
}

// ---- execution ----

// admit is the engine's admission hook: an open coordinator admits
// everything. A job whose key already completed is recalled on the spot,
// untracked; every other job is tracked and gets a goroutine that leads or
// joins the fleet-wide flight for its key, so one worker execution happens
// per unique key. It tracks under the lock Close sets closed under, so
// Close's CancelAll reaches every job it tracks.
func (c *Coordinator) admit(batch []*jobs.Job) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	var pending []*jobs.Job
	for _, j := range batch {
		if !c.Recall(j) {
			pending = append(pending, j)
		}
	}
	c.Track(pending)
	c.wg.Add(len(pending))
	c.mu.Unlock()
	for _, j := range pending {
		go func() {
			defer c.wg.Done()
			c.Run(j)
		}()
	}
	return nil
}

// execute is the engine's executor, run by a flight's leader: dispatch to
// the ring owner, steal to the next successor on failure.
func (c *Coordinator) execute(ctx context.Context, j *jobs.Job) jobs.Outcome {
	tried := make(map[string]bool)
	attempts := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return jobs.Outcome{Err: err}
		}
		if attempts >= maxAttempts {
			return jobs.Outcome{Err: fmt.Errorf("gave up after %d attempts: %w", attempts, lastErr)}
		}
		id, w, ok := c.pickWorker(j.Key, tried)
		if !ok {
			if len(tried) > 0 {
				// Every live worker failed this job once; sweep them again.
				clear(tried)
				continue
			}
			// Empty fleet: wait for a registration, bounded by the deadline.
			select {
			case <-ctx.Done():
				return jobs.Outcome{Err: fmt.Errorf("%w: %w", ErrNoWorkers, ctx.Err())}
			case <-c.closeCh:
				return jobs.Outcome{Err: ErrClosed}
			case <-time.After(100 * time.Millisecond):
				continue
			}
		}
		attempts++
		if attempts > 1 {
			c.m.steals.Inc()
			c.logf("job %s stolen to worker %s (attempt %d): %v", j.ID, id, attempts, lastErr)
		}
		raw, st, err := c.dispatch(ctx, j, id, w)
		if err == nil {
			return jobs.Outcome{Raw: raw, Source: st.Source, Cycles: st.Cycles, Worker: id}
		}
		if errors.Is(err, errPermanent) {
			return jobs.Outcome{Err: err}
		}
		lastErr = err
		tried[id] = true
	}
}

// pickWorker walks the key's ring successors twice — healthy workers first,
// then degraded — skipping draining, unhealthy, gone, and already-tried
// workers. Returning the first eligible successor preserves key affinity:
// the owner gets the job whenever it is willing.
func (c *Coordinator) pickWorker(key string, tried map[string]bool) (string, *workerEntry, bool) {
	order := c.ring.Successors(key, c.ring.Len())
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, want := range []string{client.HealthHealthy, client.HealthDegraded} {
		for _, id := range order {
			w := c.workers[id]
			if w == nil || w.gone || tried[id] || w.health != want {
				continue
			}
			return id, w, true
		}
	}
	return "", nil, false
}

// dispatch runs one attempt on one worker through its lanes: the job's
// request goes in the next submit group (a warm worker answers inline, and
// a group the worker refuses whole is resent item by item), whose long-poll
// then brings its terminal status. Any non-permanent error (network death,
// the worker declared gone, worker-side expiry) sends the caller back into
// the steal loop; a best-effort steal-cancel tells the abandoned worker to
// stop burning cycles.
func (c *Coordinator) dispatch(ctx context.Context, j *jobs.Job, id string, w *workerEntry) (json.RawMessage, client.JobStatus, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	c.mu.Lock()
	w.attempts[j.Key] = cancel
	w.inflight++
	w.dispatched++
	c.mu.Unlock()
	c.m.dispatches.Inc()
	defer func() {
		c.mu.Lock()
		delete(w.attempts, j.Key)
		w.inflight--
		c.mu.Unlock()
	}()

	// The rung resolved here travels, so no worker default re-resolves it.
	req := j.Req
	req.Fidelity = backend.Display(j.Fidelity)
	if !j.Deadline.IsZero() {
		rem := time.Until(j.Deadline).Milliseconds()
		if rem <= 0 {
			return nil, client.JobStatus{}, context.DeadlineExceeded
		}
		req.TimeoutMS = rem
	}
	r := w.lanes.run(ctx, req, j.Key)
	st := r.st
	if r.err != nil {
		return nil, st, r.err
	}
	switch st.State {
	case client.StateDone:
		// Batch and watch responses carry a done job's result inline; a
		// worker that answers without one fails this attempt.
		if len(st.Result) == 0 {
			return nil, st, fmt.Errorf("worker %s: cell %.12s done without its result", id, j.Key)
		}
		return st.Result, st, nil
	case client.StateFailed:
		return nil, st, fmt.Errorf("%w: worker %s: %s", errPermanent, id, st.Error)
	default:
		// Expired or canceled worker-side: retryable (another worker may
		// still make the coordinator's deadline, and a cancel usually means
		// our own steal fired).
		return nil, st, fmt.Errorf("worker %s: cell %.12s %s: %s", id, j.Key, st.State, st.Error)
	}
}

// stealCancel tells a worker to stop a job this coordinator abandoned.
// Best-effort and asynchronous: the worker may already be dead, and the
// content-addressed store makes a racing completion harmless.
func (c *Coordinator) stealCancel(cl *client.Client, jobID, workerID string) {
	if jobID == "" {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := cl.Cancel(ctx, jobID); err != nil {
			c.logf("steal-cancel of %s on worker %s failed: %v", jobID, workerID, err)
		}
	}()
}

// Fleet snapshots the worker table and fleet counters.
func (c *Coordinator) Fleet() client.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := client.FleetStatus{
		Live:      c.ring.Len(),
		Jobs:      c.Len(),
		Flights:   c.Flights(),
		Steals:    int64(c.m.steals.Value()),
		DedupHits: int64(c.m.dedup.Value()),
	}
	for _, w := range c.workers {
		fs.Workers = append(fs.Workers, client.WorkerStatus{
			ID:         w.info.ID,
			URL:        w.info.URL,
			Health:     w.health,
			LastBeatMS: time.Since(w.lastBeat).Milliseconds(),
			Inflight:   w.inflight,
			Dispatched: w.dispatched,
		})
	}
	sort.Slice(fs.Workers, func(a, b int) bool { return fs.Workers[a].ID < fs.Workers[b].ID })
	return fs
}

// Close stops the coordinator: new submissions are rejected, every running
// job is canceled, and all goroutines are reaped.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closeCh)
	c.CancelAll()
	c.wg.Wait()
}
