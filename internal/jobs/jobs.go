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
// a worker). Everything a client can observe about a job — its states, its
// status JSON, when a watcher wakes, how long a finished job stays
// queryable — is decided here. A local sweep (eval.Runner) skips admission:
// it builds jobs for identities it resolved itself with NewJob, drives them
// through Run and reads each Outcome, so it keeps no job records, only
// flights.
//
// Lifecycle. Admission builds and registers the records and lets Config.Admit
// accept or refuse the batch as a unit (a refused batch is unregistered). Whoever Admit handed a job to
// calls Run, which moves it to running and makes the flight decision for its
// key: the first job leads (Config.Execute runs under a context bound to the
// job's deadline and cancel), a job arriving while the flight is open joins
// it (source "dedup") for as long as its own deadline and cancel allow, and a
// job arriving after it completed recalls the result (source "memo"). The
// leader settles, and a failed flight is evicted, before the waiters wake, so
// a resubmission retries a failure.
//
// Every path into a terminal state is settle: the daemon's durable hook runs
// first (sacd appends the journal's done record), then the state is
// published and the job's done channel closes, exactly once, then metrics
// are counted. A watcher that wakes on the channel therefore never observes
// a job the journal still calls live.
//
// Retention. Sweep drops terminal jobs Retention after they finished and
// completed flights MemoTTL after they landed; queued and running jobs are
// never swept. A dropped result is one resubmission away — the store still
// has it.
package jobs

import (
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
	// MemoTTL is how long a completed flight answers later submissions of
	// its key as a memo recall.
	MemoTTL = 15 * time.Minute
	// Retention is how long a terminal job stays queryable.
	Retention = 15 * time.Minute
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
// set: Run for a decoded result (a fresh simulation, marshaled lazily when a
// wire consumer asks), Raw for bytes that are already in canonical wire form
// (a verified store object, or a worker's answer relayed untouched).
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
}

// Config is what a daemon plugs into the engine. Execute is required;
// Resolve and Admit are required by the admission paths (Submit, SubmitBatch,
// the HTTP surface and Restore).
type Config struct {
	// Resolve validates one request and resolves its identity; its error is
	// the per-item 400 message.
	Resolve func(client.JobRequest) (Identity, error)
	// Admit gates a validated batch as a unit. On nil the daemon owns driving
	// every job in it through Run (or RunDirect); on error the table forgets
	// the batch. It runs on the submitting goroutine and may block.
	Admit func(batch []*Job) error
	// Execute produces the result for one job: on behalf of a flight (ctx is
	// bound to the job's cancel and deadline) or directly (ctx is never
	// canceled). A panic inside it fails the job, not the caller.
	Execute func(ctx context.Context, j *Job) Outcome

	// OnStart runs when a job leaves the queue, before its flight decision.
	OnStart func(j *Job)
	// OnTerminal runs exactly once per job, on the goroutine that settles it
	// and before the terminal state becomes visible, with what the job
	// settled with (Source as Outcome reports it). sacd appends its journal's
	// done record here; a local sweep reports each executed cell.
	OnTerminal func(j *Job, state string, out Outcome)
	// QueueAhead reports how many jobs are ahead of a still-queued one.
	QueueAhead func(j *Job) int
	// RetryAfter sizes the Retry-After header of an AdmitError, in seconds.
	RetryAfter func() int

	Metrics Metrics
	// Logf receives one line per admission and per terminal transition; nil
	// is silent.
	Logf func(format string, args ...any)
}

// Job is the record of one submission. The exported fields are written once
// before the job is visible to anyone else and read-only after.
type Job struct {
	ID  string
	Req client.JobRequest
	Identity
	// Deadline is the absolute end-to-end deadline (zero = none).
	Deadline  time.Time
	Submitted time.Time

	// cancelCh closes when a client cancels the job: a joiner detaches from
	// its flight, a leader's context (cancel, set while it leads) is
	// canceled, and a leader that has not started yet never starts.
	cancelCh   chan struct{}
	cancelOnce sync.Once
	// doneCh closes exactly once, when the terminal state is published.
	doneCh chan struct{}

	mu      sync.Mutex
	cancel  context.CancelFunc
	settled bool // claimed by settle; the state may not be published yet
	state   string
	source  string
	err     error
	// run is the decoded result of a fresh simulation, raw the wire form;
	// raw is marshaled from run on first demand and kept.
	run      *stats.Run
	raw      json.RawMessage
	cycles   int64
	started  time.Time
	finished time.Time
}

// Done returns the channel that closes when j reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

func (j *Job) closeCancel() { j.cancelOnce.Do(func() { close(j.cancelCh) }) }

// flight is one singleflight execution of a cache key.
type flight struct {
	done chan struct{}
	out  Outcome
	// doneAt (guarded by Table.mu) stamps successful completion for the
	// MemoTTL sweep; failed flights are evicted instead.
	doneAt time.Time
}

// Table holds a daemon's jobs and flights.
type Table struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*Job
	flights map[string]*flight
}

// New returns an empty table.
func New(cfg Config) *Table {
	return &Table{cfg: cfg, jobs: make(map[string]*Job), flights: make(map[string]*flight)}
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

// NewJob builds a queued job, under a fresh id, for an identity the caller
// already resolved: what admission does after Resolve. The caller sets Req,
// Deadline or ID before the job is visible to anyone else. The job is not
// registered — Submit, SubmitBatch and Restore do that, so that Status,
// Cancel and Watch can find it — and a caller that drives its own jobs
// through Run (a local sweep) leaves nothing behind but the flights.
func NewJob(ident Identity) *Job {
	return &Job{
		ID: newID(), Identity: ident, Submitted: time.Now(),
		cancelCh: make(chan struct{}),
		doneCh:   make(chan struct{}),
		state:    client.StateQueued,
	}
}

// ---- admission ----

// Submit admits one job: a batch of one.
func (t *Table) Submit(req client.JobRequest) (client.JobStatus, error) {
	sts, itemErrs, err := t.SubmitBatch([]client.JobRequest{req})
	switch {
	case err != nil:
		return client.JobStatus{}, err
	case itemErrs != nil:
		return client.JobStatus{}, errors.New(itemErrs[0])
	}
	return sts[0], nil
}

// SubmitBatch admits up to client.MaxBatch jobs. Admission is
// all-or-nothing: if any request fails validation, itemErrs carries one
// message per offending item (aligned with reqs, "" = valid) and nothing is
// admitted; if the batch as a whole is refused, err says why (an *AdmitError
// for backpressure, shedding, drain or shutdown). On success the statuses
// come back in request order.
func (t *Table) SubmitBatch(reqs []client.JobRequest) (sts []client.JobStatus, itemErrs []string, err error) {
	batch, itemErrs, err := t.admit(reqs)
	if batch == nil {
		return nil, itemErrs, err
	}
	sts = make([]client.JobStatus, len(batch))
	for i, j := range batch {
		sts[i] = t.status(j, false)
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
	// Registered before Admit starts them, so a concurrent Cancel or
	// CancelAll reaches every job that runs.
	t.register(batch)
	if err := t.cfg.Admit(batch); err != nil {
		t.mu.Lock()
		for _, j := range batch {
			delete(t.jobs, j.ID)
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
			logf("accepted %s %s/%s lane=%s fidelity=%s key=%.12s",
				j.ID, j.Spec.Name, j.Cfg.Org, priority(j.Req.Priority), backend.Display(j.Fidelity), j.Key)
		} else {
			logf("accepted batch of %d", len(batch))
		}
	}
	return batch, nil, nil
}

func (t *Table) register(batch []*Job) {
	t.mu.Lock()
	for _, j := range batch {
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
	t.register([]*Job{j})
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
	if t.cfg.OnStart != nil {
		t.cfg.OnStart(j)
	}
	t.mu.Lock()
	f := t.flights[j.Key]
	if f == nil {
		f = &flight{done: make(chan struct{})}
		t.flights[j.Key] = f
		t.mu.Unlock()
		f.out = t.exec(j, true)
		t.mu.Lock()
		if f.out.Err != nil {
			// Evicted before the waiters wake: a resubmission retries
			// instead of recalling the failure.
			delete(t.flights, j.Key)
		} else {
			f.doneAt = time.Now()
		}
		t.mu.Unlock()
		// The leader settles first, so its terminal hook has run before any
		// joiner wakes.
		t.settle(j, f.out, "")
		close(f.done)
		return
	}
	t.mu.Unlock()

	select {
	case <-f.done:
		inc(t.cfg.Metrics.Memo)
		t.settle(j, f.out, client.SourceMemo)
		return
	default:
	}
	// Another job's identical cell is executing right now: wait for it, but
	// only as long as this job's own deadline and cancel allow. The flight
	// keeps running for its other waiters.
	inc(t.cfg.Metrics.Dedup)
	var deadlineC <-chan time.Time
	if !j.Deadline.IsZero() {
		tm := time.NewTimer(time.Until(j.Deadline))
		defer tm.Stop()
		deadlineC = tm.C
	}
	select {
	case <-f.done:
		t.settle(j, f.out, client.SourceDedup)
	case <-deadlineC:
		t.settle(j, Outcome{Err: expiredErr(j)}, "")
	case <-j.cancelCh:
		t.settle(j, Outcome{Err: errCanceled}, "")
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
		t.settle(j, f.out, client.SourceMemo)
	}
	return true
}

// RunDirect executes j on the calling goroutine without touching the flight
// table — for cells so cheap that the store is dedup enough.
func (t *Table) RunDirect(j *Job) {
	if t.begin(j) {
		t.settle(j, t.exec(j, false), "")
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
		t.settle(j, Outcome{Err: expiredErr(j)}, "")
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
	ID    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: panic executing %s: %v", e.ID, e.Value)
}

// exec calls the executor and contains its panics (chaos injection, poisoned
// input, a simulator bug in one sweep cell): a failed execution is a failed
// job, not a dead process. A leader gets a context its job's cancel and
// deadline reach.
func (t *Table) exec(j *Job, lead bool) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: &PanicError{ID: j.ID, Value: r, Stack: debug.Stack()}}
		}
	}()
	ctx := context.Background()
	if lead {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		if !j.Deadline.IsZero() {
			var cancelDL context.CancelFunc
			ctx, cancelDL = context.WithDeadline(ctx, j.Deadline)
			defer cancelDL()
		}
		j.mu.Lock()
		j.cancel = cancel
		j.mu.Unlock()
		select {
		case <-j.cancelCh:
			// Canceled between leaving the queue and leading: don't start.
			return Outcome{Err: errCanceled}
		default:
		}
	}
	return t.cfg.Execute(ctx, j)
}

// Simulate is the store-backed simulate step of the in-process executors,
// sacd's and a local sweep's: the store's verified bytes when it holds j's
// cell, otherwise sim's fresh result, written back. A failed write-back never
// fails the job; the store counts it and logf (nil is silent) reports it. A
// nil store makes this a plain simulation.
func Simulate(j *Job, st *store.Store, sim func() (*stats.Run, error), logf func(format string, args ...any)) Outcome {
	if raw, cycles, ok := st.GetRaw(j.Key); ok {
		return Outcome{Raw: raw, Cycles: cycles, Source: client.SourceStore}
	}
	res, err := sim()
	if err != nil {
		return Outcome{Err: err}
	}
	if err := st.PutRunAt(j.Cfg, j.Spec.Name, j.Plan.Key(), j.Fidelity, res); err != nil && logf != nil {
		logf("store: put %s/%s key=%.12s: %v", j.Spec.Name, j.Cfg.Org, j.Key, err)
	}
	return Outcome{Run: res, Cycles: res.Cycles, Source: client.SourceSim}
}

// settle is the one transition into a terminal state. The error decides the
// state: a deadline error expires the job, a cancellation cancels it, any
// other error fails it. source overrides the outcome's own for joins and
// recalls. Only the first call for a job does anything.
func (t *Table) settle(j *Job, out Outcome, source string) {
	state := client.StateDone
	switch {
	case out.Err == nil:
	case errors.Is(out.Err, context.DeadlineExceeded):
		state = client.StateExpired
	case errors.Is(out.Err, context.Canceled):
		state = client.StateCanceled
	default:
		state = client.StateFailed
	}
	if source != "" {
		out.Source = source
	}
	j.mu.Lock()
	if j.settled {
		j.mu.Unlock()
		return
	}
	j.settled = true
	j.mu.Unlock()

	if t.cfg.OnTerminal != nil {
		t.cfg.OnTerminal(j, state, out)
	}

	now := time.Now()
	j.mu.Lock()
	j.state, j.finished, j.source, j.cancel = state, now, out.Source, nil
	if out.Err != nil {
		j.err = out.Err
	} else {
		j.run, j.raw, j.cycles = out.Run, out.Raw, out.Cycles
	}
	started := j.started
	j.mu.Unlock()
	close(j.doneCh)

	m := &t.cfg.Metrics
	switch state {
	case client.StateDone:
		inc(m.Done)
	case client.StateFailed:
		inc(m.Failed)
	case client.StateExpired:
		inc(m.Expired)
	case client.StateCanceled:
		inc(m.Canceled)
	}
	total := now.Sub(j.Submitted).Seconds()
	observe(m.Latency, total)
	if !started.IsZero() {
		observe(m.RunLatency, now.Sub(started).Seconds())
	}
	if t.cfg.Logf != nil {
		t.cfg.Logf("%s %s %s/%s key=%.12s source=%s worker=%s total=%.3fs",
			state, j.ID, j.Spec.Name, j.Cfg.Org, j.Key, out.Source, out.Worker, total)
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

// Get returns the job registered under id, or nil.
func (t *Table) Get(id string) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// Len returns how many jobs the table holds: everything live plus the
// terminal jobs still inside Retention.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// Flights returns the flight-table size (executing plus memoized keys).
func (t *Table) Flights() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flights)
}

func priority(p string) string {
	if p == "" {
		return client.PriorityNormal
	}
	return p
}

// status is the one projection of a job onto the wire. withResult inlines a
// done job's result bytes (the ?results=1 path).
func (t *Table) status(j *Job, withResult bool) client.JobStatus {
	j.mu.Lock()
	st := client.JobStatus{
		ID:          j.ID,
		State:       j.state,
		Benchmark:   j.Spec.Name,
		Org:         j.Cfg.Org.String(),
		Priority:    priority(j.Req.Priority),
		Fidelity:    backend.Display(j.Fidelity),
		Key:         j.Key,
		Source:      j.source,
		Cycles:      j.cycles,
		SubmittedAt: j.Submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		at := j.started
		st.StartedAt = &at
	}
	if !j.finished.IsZero() {
		at := j.finished
		st.FinishedAt = &at
	}
	if !j.Deadline.IsZero() {
		at := j.Deadline
		st.DeadlineAt = &at
	}
	if withResult && j.state == client.StateDone {
		st.Result = j.rawLocked()
	}
	j.mu.Unlock()
	if st.State == client.StateQueued && t.cfg.QueueAhead != nil {
		st.QueueAhead = t.cfg.QueueAhead(j)
	}
	return st
}

// rawLocked returns the result in canonical wire form, marshaling a fresh
// simulation's once. The caller holds j.mu.
func (j *Job) rawLocked() json.RawMessage {
	if j.raw == nil && j.run != nil {
		if b, err := json.Marshal(j.run); err == nil {
			j.raw = b
		}
	}
	return j.raw
}

// Status reports one job; ok is false for ids the table does not hold.
func (t *Table) Status(id string) (client.JobStatus, bool) {
	j := t.Get(id)
	if j == nil {
		return client.JobStatus{}, false
	}
	return t.status(j, false), true
}

// ResultRaw returns a done job's result in canonical wire form — store hits
// and relayed worker answers untouched, fresh simulations marshaled once.
// Nil raw with ok true means the job holds no result (not done).
func (t *Table) ResultRaw(id string) (json.RawMessage, client.JobStatus, bool) {
	j := t.Get(id)
	if j == nil {
		return nil, client.JobStatus{}, false
	}
	st := t.status(j, true)
	raw := st.Result
	st.Result = nil
	return raw, st, true
}

// Cancel stops one job and returns its status, which a running job reaches
// "canceled" in asynchronously; ok is false for unknown ids. A queued job
// turns terminal here without ever running; a running leader has its
// execution context canceled, which cancels the flight (jobs joined to it
// fail canceled with it, and the evicted flight lets resubmissions retry); a
// running joiner only detaches. Terminal jobs are untouched, so Cancel may
// race a finishing job — results are content-addressed, and a cancel that
// loses costs only the work it failed to save.
func (t *Table) Cancel(id string) (client.JobStatus, bool) {
	j := t.Get(id)
	if j == nil {
		return client.JobStatus{}, false
	}
	t.cancel(j)
	return t.status(j, false), true
}

func (t *Table) cancel(j *Job) {
	j.mu.Lock()
	queued := j.state == client.StateQueued
	cancel := j.cancel
	j.mu.Unlock()
	j.closeCancel()
	if cancel != nil {
		cancel()
	}
	if queued {
		// settle and begin claim the job under its lock, so a worker
		// picking it up right now either never starts it or finds it
		// canceled before it leads.
		t.settle(j, Outcome{Err: errCanceled}, "")
	}
}

// CancelAll cancels every job the table holds (coordinator shutdown).
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

// Sweep is the retention pass: completed flights older than MemoTTL and
// terminal jobs older than Retention at now leave the table. The daemons
// call it on a ticker; tests pass a later now instead of waiting.
func (t *Table) Sweep(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, f := range t.flights {
		if !f.doneAt.IsZero() && now.Sub(f.doneAt) > MemoTTL {
			delete(t.flights, key)
		}
	}
	for id, j := range t.jobs {
		j.mu.Lock()
		fin := j.finished
		j.mu.Unlock()
		if !fin.IsZero() && now.Sub(fin) > Retention {
			delete(t.jobs, id)
		}
	}
}
