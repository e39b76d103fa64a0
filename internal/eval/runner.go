// Package eval is the reproduction harness: one runner per table and figure
// of the paper's evaluation (§5). Each experiment executes the required
// simulations — memoized, so overlapping experiments share runs — and
// returns a typed result that can be printed as the same rows/series the
// paper reports.
package eval

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/jobs"
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
	// OnCellDone is called once per execution — a simulation, a store hit or
	// a contained panic, never a join or a recall — on the executing
	// goroutine, before any request of the cell returns. It must be safe for
	// concurrent use at the Runner's parallelism.
	OnCellDone func(CellResult)
	// Store, when set, is the result cache sacd and sacsweep -cache-dir share:
	// an executing cell reads it, and writes a fresh result back.
	Store *store.Store
	// Simulate is the simulate step; nil selects backend.Run. Tests swap it
	// for failing or panicking cells, sacsweep -remote for a fleet executor.
	Simulate func(gpu.Config, workload.Spec, gpu.RunOpts) (*stats.Run, error)

	once                                       sync.Once
	t                                          *jobs.Table
	slots                                      chan struct{}
	logMu                                      sync.Mutex
	ok, failed, inflight, cycles, hits, misses *obs.Metric
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
func (r *Runner) RunAll(reqs []RunRequest) ([]*stats.Run, error) {
	t := r.table()
	js := make([]*jobs.Job, len(reqs))
	byKey := make(map[string]*jobs.Job, len(reqs))
	for i, q := range reqs {
		id := r.identity(q)
		if js[i] = byKey[id.Key]; js[i] == nil {
			js[i] = jobs.NewJob(id)
			byKey[id.Key] = js[i]
			go t.Run(js[i])
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
	return out, errors.Join(errs...)
}

// Runs returns how many cells were simulated: store hits, joins and recalls
// excluded.
func (r *Runner) Runs() int {
	r.table()
	return int(r.ok.Value() - r.hits.Value())
}
