// Package jobs is the job engine sacd, saccoord and local sweeps share: one
// job record, one table of jobs, one singleflight table of executions keyed
// on the result store's content address, one transition into a terminal
// state, one status projection, one retention sweep, one batch admission pass
// and one HTTP surface for the /v1/jobs routes (http.go).
//
// A daemon supplies what differs through Config: how a request resolves to a
// simulation identity, how an admitted batch is gated and started (sacd
// queues it for its worker pool, saccoord spawns a goroutine per job), and
// how one execution produces a result (sacd simulates, saccoord dispatches to
// a worker). Everything a client can observe about a job is decided here. A
// local sweep (eval.Runner) skips admission: it builds jobs with NewJob,
// drives them through Run and reads each Outcome, so it keeps only flights.
//
// Lifecycle. Admission builds the records and lets Config.Admit accept or
// refuse the batch as a unit (none of a refused batch's jobs runs). An id is
// a handle for a pending job: a job Admit settles (sacd's inline estimate
// cells, saccoord's recalls) answers in the batch response without one, and
// the table keeps nothing of it; one it hands on, it first tracks (Track).
// Run moves a job to running and makes the flight decision for its key: the
// first job leads (Config.Execute runs under a context that the job's
// deadline and cancel end), one arriving while the flight is open joins it
// (source "dedup") under such a context of its own, detaching when it ends,
// and one arriving after the flight completed recalls it (source "memo"). A
// leader's flight completes (a failed one is evicted, so a resubmission
// retries it) before its terminal state is published: whoever sees it
// finished and resubmits recalls, never joins.
//
// Every path into a terminal state is settle: the daemon's durable hook runs
// first (sacd appends the journal's done record), then the state is
// published and the job's done channel closes, exactly once, then metrics
// are counted. A watcher never observes a job the journal still calls live.
//
// Retention. A tracked job that settles leaves the live map for its final
// status (a done job's result bytes inline, shared with the store or the
// worker's answer), kept in finish order: the job record is garbage. Sweep
// pops the statuses older than Retention, and settle the oldest past
// RetainedBytes, each with the flight its job led; live jobs are never
// dropped, nor a flight no tracked job led (a local sweep's).
package jobs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// How long the table remembers. Both daemons forget on the same schedule.
const (
	// Retention is how long a terminal job stays queryable, and the flight
	// it led answers later submissions of its key as a memo recall.
	Retention = 15 * time.Minute
	// RetainedBytes bounds the final statuses a table keeps, each charged
	// statusOverhead plus its result bytes: past it the oldest are dropped
	// as if swept, so a fast stream of cells cannot hold a Retention's worth.
	RetainedBytes = 256 << 20
	// statusOverhead is what one retained status costs beyond its result:
	// the final record, its id and its index entries.
	statusOverhead = 384
)

// Identity is a job request validated and resolved to its full simulation
// identity: the concrete configuration, workload, fault plan, normalized
// fidelity rung, and the content address the result is filed under. Flights
// deduplicate on Key; saccoord places on it.
type Identity struct {
	Cfg      gpu.Config
	Spec     workload.Spec
	Plan     *fault.Plan
	Fidelity string // normalized rung ("" = exact)
	Key      string // store.KeyAt content address
}

// Outcome is what one execution produced. Exactly one of Err, Run and Raw is
// set: Run for a decoded result (a fresh simulation, marshaled once when a
// tracked job settles), Raw for bytes that are already in canonical wire
// form (a verified store object, or a worker's answer relayed untouched).
type Outcome struct {
	Run    *stats.Run
	Raw    json.RawMessage
	Cycles int64
	Source string // client.SourceSim or client.SourceStore
	Worker string // saccoord: the worker that produced the result
	Err    error
}

// AdmitError refuses a whole, valid batch. The HTTP surface answers it with
// Code (429 or 503) and, when Config.RetryAfter is set, a Retry-After
// header; every other admission error is a 400.
type AdmitError struct {
	Code int
	Msg  string
}

func (e *AdmitError) Error() string { return e.Msg }

// Metrics are the series the engine counts into; the daemons register them
// under their own names. Any field may be nil.
type Metrics struct {
	Accepted                        *obs.Metric // jobs admitted
	Done, Failed, Expired, Canceled *obs.Metric // terminal transitions by state
	Dedup, Memo                     *obs.Metric // flight joins and recalls
	Latency                         *obs.Histogram
	RunLatency                      *obs.Histogram
	Retained                        *obs.Metric // gauge: final statuses held, set by Sweep
}

// Config is what a daemon plugs into the engine. Execute is required, and
// Resolve and Admit by admission (SubmitBatch, the HTTP surface, Restore).
type Config struct {
	// Resolve validates one request and resolves its identity, which the
	// job shares and never writes; its error is the per-item 400 message.
	Resolve func(client.JobRequest) (*Identity, error)
	// Admit gates a validated batch as a unit. On nil the daemon owns driving
	// every job in it through Run (or RunDirect), and tracks (Table.Track)
	// every job it does not settle before returning; on error the table
	// forgets the batch, and none of its jobs may ever run. It runs on the
	// submitting goroutine and may block.
	Admit func(batch []*Job) error
	// Execute produces the result for one job: on behalf of a flight (ctx is
	// bound to the job's cancel and deadline) or directly (ctx is the one
	// RunDirect was given). A panic inside it fails the job, not the caller.
	Execute func(ctx context.Context, j *Job) Outcome

	// OnTerminal runs once per job, on the goroutine that settles it, before
	// the terminal state becomes visible, with what the job settled with.
	// sacd appends its journal's done record here; a local sweep reports
	// each executed cell.
	OnTerminal func(j *Job, state string, out Outcome)
	// QueueAhead reports how many jobs are ahead of a still-queued one.
	QueueAhead func(j *Job) int
	// RetryAfter sizes the Retry-After header of an AdmitError, in seconds.
	RetryAfter func() int

	Metrics Metrics
	Logf    func(format string, args ...any) // a line per admission and settle
}

// Job is the record of one submission. The exported fields are written once
// before the job is visible to anyone else and read-only after; the
// Identity is shared, read-only, with every job of the same remembered cell.
type Job struct {
	ID  string // set by Track
	Req client.JobRequest
	*Identity
	// Deadline is the absolute end-to-end deadline (zero = none).
	Deadline  time.Time
	Submitted time.Time

	// tracked is set by Track, before the job is visible: only a tracked job
	// is retained as a final status when it settles.
	tracked bool

	mu sync.Mutex
	// canceled is set by a client's cancel: a job not yet leading or joining
	// never does. cancel ends the context a leader executes and a joiner
	// waits under, once Run has bound it.
	canceled bool
	cancel   context.CancelFunc
	// doneCh, made on the first Done call, closes when the terminal state
	// is published.
	doneCh  chan struct{}
	settled bool   // claimed by settle; the state may not be published yet
	final   *final // a tracked job's retained status, once settled
	state   string
	source  string
	err     error
	// run is the decoded result of a fresh simulation, raw the wire form.
	run      *stats.Run
	raw      json.RawMessage
	cycles   int64
	started  time.Time
	finished time.Time
	// watchers are the wake channels of the Watch calls parked on this job;
	// settle signals each once the terminal state is published.
	watchers []chan struct{}
}

// Done returns the channel that closes when j reaches a terminal state.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
		if !j.finished.IsZero() {
			close(j.doneCh)
		}
	}
	return j.doneCh
}

// over reports whether j's terminal state is published: settle stamps
// finished in the step that publishes it.
func (j *Job) over() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.finished.IsZero()
}

// flight is one singleflight execution of a cache key.
type flight struct {
	done   chan struct{}
	out    Outcome
	leader string // the leading job's id: popping its status retires f
}

// land completes f with out, under key: a failure is evicted, unless another
// flight holds the key by now, so a resubmission retries it; then its
// waiters wake.
func (t *Table) land(f *flight, key string, out Outcome) {
	t.mu.Lock()
	f.out = out
	if out.Err != nil && t.flights[key] == f {
		delete(t.flights, key)
	}
	t.mu.Unlock()
	close(f.done)
}

// final is a settled tracked job as the table retains it: its last
// status, whose time pointers point at at (started, finished, deadline), so
// the whole record is one allocation.
type final struct {
	st client.JobStatus
	at [3]time.Time
}

// charge is what f counts against RetainedBytes.
func (f *final) charge() int { return statusOverhead + len(f.st.Result) }

// Table holds a daemon's live jobs, its retained final statuses and its
// flights.
type Table struct {
	cfg Config

	mu   sync.Mutex
	jobs map[string]*Job
	// done holds final statuses in finish order; seq maps an id to its
	// sequence number (done[0]'s is head): no pointer, less for the GC.
	// retained is the sum of their charges.
	done     []*final
	head     int
	retained int
	seq      map[string]int
	flights  map[string]*flight
}

// New returns an empty table.
func New(cfg Config) *Table {
	return &Table{cfg: cfg, jobs: make(map[string]*Job), seq: make(map[string]int), flights: make(map[string]*flight)}
}

func inc(m *obs.Metric) {
	if m != nil {
		m.Inc()
	}
}

func observe(h *obs.Histogram, v float64) {
	if h != nil {
		h.Observe(v)
	}
}

// newID draws a random job id: "j" and 8 bytes of hex.
func newID() string {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		panic(fmt.Sprintf("jobs: entropy unavailable: %v", err))
	}
	var b [17]byte
	b[0] = 'j'
	hex.Encode(b[1:], raw[:])
	return string(b[:])
}

// NewJob builds a queued job, without an id, for an identity the caller
// already resolved: what admission does after Resolve. The caller sets Req
// or Deadline before the job is visible to anyone else. The job is not
// tracked — Track does that, so that Status, Cancel and Watch can find it —
// and a caller that drives its own jobs through Run (a local sweep) leaves
// nothing behind but the flights.
func NewJob(ident *Identity) *Job {
	return &Job{Identity: ident, Submitted: time.Now(), state: client.StateQueued}
}

// ---- admission ----

// SubmitBatch admits up to client.MaxBatch jobs. Admission is
// all-or-nothing: if any request fails validation, itemErrs carries one
// message per offending item (aligned with reqs, "" = valid) and nothing is
// admitted; if the batch as a whole is refused, err says why (an *AdmitError
// for backpressure, ill health, drain or shutdown). On success the statuses
// come back in request order, a done job's result bytes inline; a job
// settled in admission has no id and is not kept.
func (t *Table) SubmitBatch(reqs []client.JobRequest) (sts []client.JobStatus, itemErrs []string, err error) {
	batch, itemErrs, err := t.admit(reqs)
	if batch == nil {
		return nil, itemErrs, err
	}
	sts = make([]client.JobStatus, len(batch))
	for i, j := range batch {
		sts[i] = t.status(j)
	}
	return sts, nil, nil
}

func (t *Table) admit(reqs []client.JobRequest) (batch []*Job, itemErrs []string, err error) {
	if len(reqs) == 0 {
		return nil, nil, errors.New("empty batch")
	}
	if len(reqs) > client.MaxBatch {
		return nil, nil, fmt.Errorf("batch of %d jobs exceeds the limit of %d", len(reqs), client.MaxBatch)
	}
	batch = make([]*Job, len(reqs))
	for i, req := range reqs {
		ident, rerr := t.cfg.Resolve(req)
		if rerr != nil {
			if itemErrs == nil {
				itemErrs = make([]string, len(reqs))
			}
			itemErrs[i] = rerr.Error()
			continue
		}
		j := NewJob(ident)
		j.Req = req
		if req.TimeoutMS > 0 {
			j.Deadline = j.Submitted.Add(time.Duration(req.TimeoutMS) * time.Millisecond)
		}
		batch[i] = j
	}
	if itemErrs != nil {
		return nil, itemErrs, nil
	}
	if err := t.cfg.Admit(batch); err != nil {
		t.mu.Lock()
		for _, j := range batch {
			if j.tracked {
				delete(t.jobs, j.ID)
			}
		}
		t.mu.Unlock()
		return nil, nil, err
	}
	if m := t.cfg.Metrics.Accepted; m != nil {
		m.Add(float64(len(batch)))
	}
	// Logging is guarded at the call site so a silent daemon does not pay for
	// boxing the arguments.
	if logf := t.cfg.Logf; logf != nil {
		if j := batch[0]; len(batch) == 1 {
			logf("accepted %s %s/%s fidelity=%s key=%.12s",
				cmp.Or(j.ID, "-"), j.Spec.Name, j.Cfg.Org, backend.Display(j.Fidelity), j.Key)
		} else {
			logf("accepted batch of %d", len(batch))
		}
	}
	return batch, nil, nil
}

// Track gives each job of batch an id, unless it has one, and makes it
// findable by Status, Watch, Cancel and CancelAll, and retained once it
// settles. Admit tracks a job before it can run, so a cancel reaches it.
func (t *Table) Track(batch []*Job) {
	for _, j := range batch {
		if j.ID == "" {
			j.ID = newID()
		}
	}
	t.mu.Lock()
	for _, j := range batch {
		j.tracked = true
		t.jobs[j.ID] = j
	}
	t.mu.Unlock()
}

// Restore re-creates a job a previous daemon life accepted, under its
// original id and absolute deadline (a crash must not extend an SLO). It
// bypasses Admit — dropping the job now would be the loss the journal exists
// to prevent — so the caller starts it.
func (t *Table) Restore(id string, req client.JobRequest, deadline time.Time) (*Job, error) {
	ident, err := t.cfg.Resolve(req)
	if err != nil {
		return nil, err
	}
	j := NewJob(ident)
	j.ID, j.Req, j.Deadline = id, req, deadline
	t.Track([]*Job{j})
	inc(t.cfg.Metrics.Accepted)
	return j, nil
}

// ---- execution ----

// Run drives one admitted job to its terminal state on the calling
// goroutine: memo recall, dedup join, or leading the flight for its key.
func (t *Table) Run(j *Job) {
	if !t.begin(j) {
		return
	}
	var lead *flight // j's own, if it leads
	t.mu.Lock()
	f := t.flights[j.Key]
	if f == nil {
		f = &flight{done: make(chan struct{}), leader: j.ID}
		t.flights[j.Key], lead = f, f
	}
	t.mu.Unlock()
	if lead == nil {
		select {
		case <-f.done:
			inc(t.cfg.Metrics.Memo)
			t.settle(j, f.out, client.SourceMemo, nil)
			return
		default:
		}
		inc(t.cfg.Metrics.Dedup)
	}

	// The leader executes, and a joiner waits, under a context that j's
	// deadline and a client's cancel end; a joiner then detaches and the
	// flight runs on for its other waiters.
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Deadline.IsZero() {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithDeadline(context.Background(), j.Deadline)
	}
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.canceled
	j.mu.Unlock()
	switch {
	case canceled:
		// Canceled between leaving the queue and binding cancel: don't start.
		t.settle(j, Outcome{Err: errCanceled}, "", lead)
	case lead != nil:
		t.settle(j, t.exec(ctx, j), "", lead)
	default:
		select {
		case <-f.done:
			t.settle(j, f.out, client.SourceDedup, nil)
		case <-ctx.Done():
			out := Outcome{Err: errCanceled}
			if ctx.Err() == context.DeadlineExceeded {
				out.Err = expiredErr(j)
			}
			t.settle(j, out, "", nil)
		}
	}
}

// Recall settles j from a completed flight of its key without blocking and
// reports whether there was one; on false the caller still owes j a Run.
func (t *Table) Recall(j *Job) bool {
	t.mu.Lock()
	f := t.flights[j.Key]
	t.mu.Unlock()
	if f == nil {
		return false
	}
	select {
	case <-f.done:
	default:
		return false
	}
	if t.begin(j) {
		inc(t.cfg.Metrics.Memo)
		t.settle(j, f.out, client.SourceMemo, nil)
	}
	return true
}

// RunDirect executes j on the calling goroutine without touching the flight
// table — for cells so cheap that the store is dedup enough. Execute gets
// ctx as it is: sacd hands a batch's cells one context carrying the batch's
// run-set.
func (t *Table) RunDirect(ctx context.Context, j *Job) {
	if t.begin(j) {
		t.settle(j, t.exec(ctx, j), "", nil)
	}
}

var errCanceled = fmt.Errorf("canceled by client: %w", context.Canceled)

func expiredErr(j *Job) error {
	return fmt.Errorf("deadline %s passed: %w", j.Deadline.Format(time.RFC3339Nano), context.DeadlineExceeded)
}

// begin moves j from queued to running. False means j never runs: it was
// canceled while queued, or its deadline passed there and it expires here
// without costing an execution.
func (t *Table) begin(j *Job) bool {
	now := time.Now()
	if !j.Deadline.IsZero() && now.After(j.Deadline) {
		t.settle(j, Outcome{Err: expiredErr(j)}, "", nil)
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settled {
		return false
	}
	j.state, j.started = client.StateRunning, now
	return true
}

// PanicError is a panic the engine contained while executing a job: the
// recovered value and the goroutine's stack at the panic site.
type PanicError struct {
	ID    string // the job's id, else its key
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: panic executing %s: %v", e.ID, e.Value)
}

// exec calls the executor and contains its panics: a failed execution is a
// failed job, not a dead process.
func (t *Table) exec(ctx context.Context, j *Job) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: &PanicError{ID: cmp.Or(j.ID, j.Key), Value: r, Stack: debug.Stack()}}
		}
	}()
	return t.cfg.Execute(ctx, j)
}

// Simulate is the store-backed simulate step of sacd's and a local sweep's
// executors: the store's verified bytes for j's cell, else sim's fresh
// result, written back. A failed write-back never fails the job; the store
// counts it and logf (nil is silent) reports it. A nil store just simulates.
func Simulate(j *Job, st *store.Store, sim func() (*stats.Run, error), logf func(format string, args ...any)) Outcome {
	if raw, cycles, ok := st.GetRaw(j.Key); ok {
		return Outcome{Raw: raw, Cycles: cycles, Source: client.SourceStore}
	}
	return WriteBack(j, st, sim, logf)
}

// WriteBack is Simulate past a store miss the caller has already taken (a
// remote sweep reads the store once, before it ships its misses): sim's
// result, written back.
func WriteBack(j *Job, st *store.Store, sim func() (*stats.Run, error), logf func(format string, args ...any)) Outcome {
	res, err := sim()
	if err != nil {
		return Outcome{Err: err}
	}
	if err := st.PutRunAt(j.Cfg, j.Spec.Name, j.Plan.Key(), j.Fidelity, res); err != nil && logf != nil {
		logf("store: put %s/%s key=%.12s: %v", j.Spec.Name, j.Cfg.Org, j.Key, err)
	}
	return Outcome{Run: res, Cycles: res.Cycles, Source: client.SourceSim}
}

// settle is the one transition into a terminal state, which the error
// decides (expired, canceled, else failed); source overrides the outcome's
// own for joins and recalls. Only the first call for a job does anything,
// but a leader's always lands its flight f: a cancel can claim it mid-run.
func (t *Table) settle(j *Job, out Outcome, source string, f *flight) {
	m := &t.cfg.Metrics
	state, counter := client.StateDone, m.Done
	switch {
	case out.Err == nil:
	case errors.Is(out.Err, context.DeadlineExceeded):
		state, counter = client.StateExpired, m.Expired
	case errors.Is(out.Err, context.Canceled):
		state, counter = client.StateCanceled, m.Canceled
	default:
		state, counter = client.StateFailed, m.Failed
	}
	if source != "" {
		out.Source = source
	}
	j.mu.Lock()
	if j.settled {
		j.mu.Unlock()
		if f != nil {
			t.land(f, j.Key, out)
		}
		return
	}
	j.settled = true
	j.mu.Unlock()

	if t.cfg.OnTerminal != nil {
		t.cfg.OnTerminal(j, state, out)
	}
	if j.tracked && out.Raw == nil && out.Run != nil {
		// A retained status holds the wire form; the flight keeps the same
		// bytes for the jobs that join or recall it.
		if b, err := json.Marshal(out.Run); err == nil {
			out.Run, out.Raw = nil, b
		}
	}
	if f != nil {
		t.land(f, j.Key, out)
	}

	now := time.Now()
	j.mu.Lock()
	j.state, j.finished, j.source, j.cancel = state, now, out.Source, nil
	if out.Err != nil {
		j.err = out.Err
	} else {
		j.run, j.raw, j.cycles = out.Run, out.Raw, out.Cycles
	}
	started, watchers := j.started, j.watchers
	j.watchers = nil
	var fin *final
	if j.tracked {
		fin = &final{}
		fin.st = j.statusLocked(&fin.at)
		fin.st.Result = out.Raw // nil unless done
		j.final = fin
	}
	if j.doneCh != nil {
		close(j.doneCh)
	}
	j.mu.Unlock()
	if fin != nil {
		// One step from the live map to the retained, so a lookup never
		// misses the id.
		t.mu.Lock()
		delete(t.jobs, j.ID)
		t.seq[j.ID] = t.head + len(t.done)
		t.done = append(t.done, fin)
		t.retained += fin.charge()
		for t.retained > RetainedBytes {
			t.popLocked()
		}
		t.mu.Unlock()
	}
	for _, wake := range watchers {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	inc(counter)
	total := now.Sub(j.Submitted).Seconds()
	observe(m.Latency, total)
	if !started.IsZero() {
		observe(m.RunLatency, now.Sub(started).Seconds())
	}
	if t.cfg.Logf != nil {
		// An untracked job has no id ("-"): its key names it.
		t.cfg.Logf("%s %s %s/%s key=%.12s source=%s worker=%s total=%.3fs",
			state, cmp.Or(j.ID, "-"), j.Spec.Name, j.Cfg.Org, j.Key, out.Source, out.Worker, total)
	}
}

// Outcome returns what a terminal job settled with. Source says how the
// result was obtained: sim or store for the job that executed, dedup or memo
// for one that joined or recalled another's execution; a failed execution
// has none.
func (j *Job) Outcome() Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Outcome{Run: j.run, Raw: j.raw, Cycles: j.cycles, Source: j.source, Err: j.err}
}

// Requeue marks a still-queued job as carried over to the daemon's next
// life (sacd's drain): not terminal, it resumes from the journal.
func (t *Table) Requeue(j *Job) {
	j.mu.Lock()
	if !j.settled {
		j.state = client.StateRequeued
	}
	j.mu.Unlock()
}

// ---- queries ----

// find returns the live job tracked under id, or else the final status
// retained for it; both nil for an unknown id.
func (t *Table) find(id string) (*Job, *final) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.seq[id]; ok {
		return nil, t.done[n-t.head]
	}
	return t.jobs[id], nil
}

// Len returns how many jobs the table holds: the live ones plus the final
// statuses retained since the last Sweep.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs) + len(t.done)
}

// Flights returns how many flights the table holds, running or completed.
func (t *Table) Flights() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flights)
}

// status is the one projection of a job onto the wire, a done job's result
// bytes inline: a tracked settled job's final status, or for one settled
// untracked its result as it settled, marshaled here if it is a fresh run.
func (t *Table) status(j *Job) client.JobStatus {
	j.mu.Lock()
	if fin := j.final; fin != nil {
		j.mu.Unlock()
		return fin.st
	}
	st := j.statusLocked(nil)
	raw, run := j.raw, j.run
	j.mu.Unlock()
	switch {
	case st.State == client.StateQueued && t.cfg.QueueAhead != nil:
		st.QueueAhead = t.cfg.QueueAhead(j)
	case raw != nil:
		st.Result = raw
	case run != nil:
		st.Result, _ = json.Marshal(run) // integers and strings: it cannot fail
	}
	return st
}

// statusLocked projects j, less any result, with its times copied into at
// (with at nil: a settled job's own, which never change again, else a block
// allocated here if any time is set). The caller holds j.mu.
func (j *Job) statusLocked(at *[3]time.Time) client.JobStatus {
	st := client.JobStatus{
		ID:          j.ID,
		State:       j.state,
		Benchmark:   j.Spec.Name,
		Org:         j.Cfg.Org.String(),
		Fidelity:    backend.Display(j.Fidelity),
		Key:         j.Key,
		Source:      j.source,
		Cycles:      j.cycles,
		SubmittedAt: j.Submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if at == nil && !j.finished.IsZero() {
		st.StartedAt, st.FinishedAt, st.DeadlineAt = nonZero(&j.started), nonZero(&j.finished), nonZero(&j.Deadline)
		return st
	}
	times := [3]time.Time{j.started, j.finished, j.Deadline}
	if at == nil && times != [3]time.Time{} {
		at = new([3]time.Time)
	}
	if at != nil {
		*at = times
		st.StartedAt, st.FinishedAt, st.DeadlineAt = nonZero(&at[0]), nonZero(&at[1]), nonZero(&at[2])
	}
	return st
}

func nonZero(at *time.Time) *time.Time {
	if at.IsZero() {
		return nil
	}
	return at
}

// Status reports one job, a done job's result bytes inline — store hits and
// relayed worker answers untouched, fresh simulations marshaled once, when
// they settle; ok is false for ids the table does not hold.
func (t *Table) Status(id string) (client.JobStatus, bool) {
	j, fin := t.find(id)
	switch {
	case fin != nil:
		return fin.st, true
	case j != nil:
		return t.status(j), true
	}
	return client.JobStatus{}, false
}

// Cancel stops one job and returns its status; ok is false for unknown ids.
// A queued job turns terminal here without running; a running leader's
// context is canceled, and with it the flight and its joiners; a running
// joiner only detaches, asynchronously in both cases. A terminal job is
// untouched: a cancel that loses a race costs only the work it failed to save.
func (t *Table) Cancel(id string) (client.JobStatus, bool) {
	if j, _ := t.find(id); j != nil {
		t.cancel(j)
	}
	return t.Status(id)
}

func (t *Table) cancel(j *Job) {
	j.mu.Lock()
	// Set where Run reads it and binds j.cancel: either Run sees the flag
	// and never starts, or the cancel func is read here.
	j.canceled = true
	queued := j.state == client.StateQueued
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if queued {
		// settle and begin claim the job under its lock, so a worker
		// picking it up right now either never starts it or finds it
		// canceled before it leads.
		t.settle(j, Outcome{Err: errCanceled}, "", nil)
	}
}

// CancelAll cancels every live job (coordinator shutdown).
func (t *Table) CancelAll() {
	t.mu.Lock()
	all := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		all = append(all, j)
	}
	t.mu.Unlock()
	for _, j := range all {
		t.cancel(j)
	}
}

// popLocked drops the oldest retained status and the flight its job led,
// the one place a table forgets a finished cell. The caller holds t.mu.
func (t *Table) popLocked() {
	fin := t.done[0]
	t.retained -= fin.charge()
	delete(t.seq, fin.st.ID)
	if f := t.flights[fin.st.Key]; f != nil && f.leader == fin.st.ID {
		delete(t.flights, fin.st.Key)
	}
	t.done[0], t.done = nil, t.done[1:]
	t.head++
}

// Sweep is the retention pass: it pops the final statuses older than
// Retention at now, with the flights their jobs led, visiting no live job,
// and sets Metrics.Retained. The daemons call it on a ticker.
func (t *Table) Sweep(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.done) > 0 && now.Sub(t.done[0].at[1]) > Retention {
		t.popLocked()
	}
	if g := t.cfg.Metrics.Retained; g != nil {
		g.Set(float64(len(t.done)))
	}
}
