// Package eval is the reproduction harness: one runner per table and figure
// of the paper's evaluation (§5). Each experiment executes the required
// simulations — memoized, so overlapping experiments share runs — and
// returns a typed result that can be printed as the same rows/series the
// paper reports.
package eval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Runner executes experiments against one baseline configuration. Its cells
// run on sacd's and saccoord's job engine, keyed on their store address: the
// first request of a cell executes it, concurrent ones join it, later ones
// recall it, and a failed cell is forgotten, so a later request retries it.
// Each cell is deterministic, so results are bit-identical at any Parallelism.
type Runner struct {
	// Base is the baseline system configuration; its Org field is ignored
	// (experiments pick organizations explicitly).
	Base gpu.Config
	// Benchmarks restricts the benchmark set (workload.Names); nil is all 16.
	Benchmarks []string
	// Parallelism bounds how many cells execute at once; a request waiting
	// on another's execution holds no slot. 0 means GOMAXPROCS, 1 is fully
	// serial. Set it, and Obs, before the first run.
	Parallelism int
	// Deprecated: ChipWorkers has no effect (one stepper); removed with ROADMAP item 1.
	ChipWorkers int
	// Faults and Fidelity apply to every cell whose RunRequest names none
	// ("" or "exact" is the cycle-exact rung). Both key the cell, so faulted
	// and healthy runs, or a fast rung's and an exact one, never collide.
	Faults   *fault.Plan
	Fidelity string
	// Log receives one line per failed store write-back.
	Log io.Writer
	// Ctx cancels the sweep: cells not yet executing fail fast and running
	// simulations abort at their next context poll, as CellErrors wrapping
	// ctx's error. Nil means uncancellable.
	Ctx context.Context
	// Obs receives the sacsweep_* series. Observe one simulation through a
	// direct sac.Run instead: parallel cells would interleave its series.
	Obs *obs.Observer
	// OnCellDone is called once per execution — a simulation, a store hit, a
	// twin or a contained panic, never a join or a recall — on the executing
	// goroutine, before any request of the cell returns. It must be safe for
	// concurrent use at the Runner's parallelism.
	OnCellDone func(CellResult)
	// Store, when set, is the result cache sacd and sacsweep -cache-dir share:
	// an executing cell reads it, and writes a fresh result back.
	Store *store.Store
	// Simulate is the simulate step; nil runs each cell through the Runner's
	// backend.RunSet, so the estimate cells of one (machine, spec) replay
	// once and an exact memory-side cell takes its SAC twin's run. Tests swap
	// it for failing or panicking cells, bench for its traced pass.
	Simulate func(gpu.Config, workload.Spec, gpu.RunOpts) (*stats.Run, error)
	// Remote, when set, is the fleet (a saccoord, or one sacd) that RunAll
	// ships store-missing cells to; see RunAll.
	Remote *client.Client

	// answers maps a remote run-set's *jobs.Job to its jobs.Outcome.
	answers sync.Map
	// runs shares estimate replays and memory-side twins among the cells it
	// simulates, for as long as the Runner's flights live.
	runs backend.RunSet

	once                                              sync.Once
	t                                                 *jobs.Table
	slots                                             chan struct{}
	logMu                                             sync.Mutex
	ok, failed, inflight, cycles, hits, misses, twins *obs.Metric
}

// RunRequest names one simulation for RunAll.
type RunRequest struct {
	Cfg  gpu.Config
	Spec workload.Spec
	// Faults and Fidelity override the Runner's for this cell when set.
	Faults   *fault.Plan
	Fidelity string
}

// NewRunner returns a Runner over the scaled baseline configuration.
func NewRunner() *Runner { return &Runner{Base: gpu.ScaledConfig()} }

// RunAll runs a run-set and returns results in request order. Every distinct
// cell runs as one job on its own goroutine, so duplicate requests share one
// *stats.Run, and a cell another call is executing is joined, not rerun. A
// failed cell is a nil slot, and the error joins one CellError per distinct
// failed cell, in request order. Every experiment fans out through here.
//
// Locally, an exact memory-side cell whose SAC twin is in the run-set waits
// for that cell to settle before it takes an execution slot, so it takes the
// twin the SAC run publishes (backend.RunSet) instead of simulating beside
// it. No SAC cell waits, so no Parallelism deadlocks.
//
// With Remote set, each distinct cell the table cannot recall is answered by
// one Store read, else by the fleet in batches of remoteBatch (remoteBatches
// outstanding), and settles through execute like any other; a cell the fleet
// cannot name (a ScaleInput variant) simulates here.
func (r *Runner) RunAll(reqs []RunRequest) ([]*stats.Run, error) {
	t := r.table()
	js := make([]*jobs.Job, len(reqs))
	byKey := make(map[string]*jobs.Job, len(reqs))
	var distinct []*jobs.Job
	for i, q := range reqs {
		id := r.identity(q)
		if js[i] = byKey[id.Key]; js[i] == nil {
			js[i] = jobs.NewJob(id)
			byKey[id.Key] = js[i]
			distinct = append(distinct, js[i])
		}
	}
	if r.Remote != nil {
		r.ship(t, distinct)
	} else {
		for _, j := range distinct {
			if sac := r.twinOf(j, byKey); sac != nil {
				go func() { <-sac.Done(); t.Run(j) }()
			} else {
				go t.Run(j)
			}
		}
	}
	out := make([]*stats.Run, len(reqs))
	var errs []error
	reported := make(map[*jobs.Job]bool)
	for i, j := range js {
		<-j.Done()
		o := j.Outcome()
		if o.Err == nil {
			out[i] = o.Run
		} else if !reported[j] {
			reported[j] = true
			errs = append(errs, cellError(j, o.Err))
		}
	}
	if r.Remote != nil {
		for _, j := range distinct {
			r.answers.Delete(j) // a cell that joined another call's flight left its answer
		}
	}
	return out, errors.Join(errs...)
}

// twinOf returns the SAC cell of byKey whose twin j, an exact memory-side
// cell the Runner's run-set simulates, can take: the same config but for
// Org, the same workload and the same fault plan. Else nil.
func (r *Runner) twinOf(j *jobs.Job, byKey map[string]*jobs.Job) *jobs.Job {
	if j.Cfg.Org != llc.MemorySide || j.Fidelity != "" || r.Simulate != nil {
		return nil
	}
	return byKey[store.KeyAt(j.Cfg.WithOrg(llc.SAC), j.Spec.Name, j.Plan.Key(), j.Fidelity)]
}

// remoteBatch cells go out per SubmitBatch, and remoteBatches batches are
// outstanding at once: sacd admits a batch all or nothing against its
// QueueCap (256 by default), so at most 128 remote cells are in flight, and
// while one batch waits on its slowest cell the other keeps the fleet busy.
const remoteBatch, remoteBatches = 64, 2

// ship answers and starts a remote run-set's distinct cells (see RunAll).
func (r *Runner) ship(t *jobs.Table, cells []*jobs.Job) {
	var misses []*jobs.Job
	for _, j := range cells {
		switch _, err := workload.ByName(j.Spec.Name); {
		case t.Recall(j):
		case err != nil: // the fleet cannot name it
			go t.Run(j)
		default:
			if raw, cycles, ok := r.Store.GetRaw(j.Key); ok {
				r.answers.Store(j, jobs.Outcome{Raw: raw, Cycles: cycles, Source: client.SourceStore})
				go t.Run(j)
			} else {
				misses = append(misses, j)
			}
		}
	}
	ctx := cmp.Or(r.Ctx, context.Background())
	outstanding := make(chan struct{}, remoteBatches)
	for len(misses) > 0 {
		batch := misses[:min(len(misses), remoteBatch)]
		misses = misses[len(batch):]
		outstanding <- struct{}{}
		go func() { r.fetch(ctx, t, batch); <-outstanding }()
	}
}

// fetch answers a batch from the fleet, one SubmitBatch and one WaitAll, and
// starts its cells. A cell whose id the fleet no longer knows (its sacd
// restarted between submit and watch) is submitted again, once. A cell ships
// with its full explicit config, so its remote key is its local one and its
// bytes are an in-process run's.
func (r *Runner) fetch(ctx context.Context, t *jobs.Table, batch []*jobs.Job) {
	reqs := make([]client.JobRequest, len(batch))
	for i, j := range batch {
		reqs[i] = client.JobRequest{Benchmark: j.Spec.Name, Org: j.Cfg.Org.String(), Config: &j.Cfg,
			Faults: j.Plan.String(), Fidelity: j.Fidelity}
	}
	sts, err := r.submit(ctx, reqs)
	for again := false; err == nil; again = true {
		at := make(map[string]int) // a pending id → its cell
		var pending []string
		for i, st := range sts {
			if !st.Done() {
				at[st.ID] = i
				pending = append(pending, st.ID)
			}
		}
		var final map[string]client.JobStatus
		final, err = r.Remote.WaitAll(ctx, pending)
		for id, st := range final {
			sts[at[id]] = st
		}
		var unknown *client.UnknownError
		if again || !errors.As(err, &unknown) {
			break
		}
		lost := make([]client.JobRequest, len(unknown.IDs))
		for k, id := range unknown.IDs {
			lost[k] = reqs[at[id]]
		}
		var fresh []client.JobStatus
		if fresh, err = r.submit(ctx, lost); err == nil {
			for k, id := range unknown.IDs {
				sts[at[id]] = fresh[k]
			}
		}
	}
	for i, j := range batch {
		a := jobs.Outcome{Err: err}
		if i < len(sts) && (err == nil || sts[i].Done()) {
			a.Run, a.Err = sts[i].Outcome() // a status left unsettled is an error naming its state
		}
		r.answers.Store(j, a)
		go t.Run(j)
	}
}

// submit sends reqs as one SubmitBatch and requires a status per request.
func (r *Runner) submit(ctx context.Context, reqs []client.JobRequest) ([]client.JobStatus, error) {
	sts, err := r.Remote.SubmitBatch(ctx, reqs)
	if err == nil && len(sts) != len(reqs) {
		sts, err = nil, fmt.Errorf("sacd: a batch of %d cells was answered with %d statuses", len(reqs), len(sts))
	}
	return sts, err
}

// Runs returns how many cells were simulated: store hits, twins, joins and
// recalls excluded.
func (r *Runner) Runs() int {
	r.table()
	return int(r.ok.Value() - r.hits.Value() - r.twins.Value())
}
