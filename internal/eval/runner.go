// Package eval is the reproduction harness: one runner per table and figure
// of the paper's evaluation (§5). Each experiment executes the required
// simulations — memoized, so overlapping experiments share runs — and
// returns a typed result that can be printed as the same rows/series the
// paper reports.
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Runner executes experiments against one baseline configuration.
//
// Simulations are memoized and deduplicated singleflight-style: the first
// submission of a (config, workload) key executes it, concurrent duplicates
// join the in-flight run, and later submissions recall the completed result
// — all experiments therefore share one run cache. Up to Parallelism
// simulations execute concurrently; each simulation is single-threaded and
// seed-deterministic, so results are bit-identical at any Parallelism.
type Runner struct {
	// Base is the baseline system configuration; its Org field is ignored
	// (experiments pick organizations explicitly).
	Base gpu.Config
	// Benchmarks restricts the benchmark set (names from workload.Names);
	// nil means all 16.
	Benchmarks []string
	// Parallelism bounds how many simulations run concurrently. 0 means
	// GOMAXPROCS; 1 recovers the fully serial engine. It must be set before
	// the first run; later changes have no effect.
	Parallelism int
	// Deprecated: ChipWorkers has no effect (one stepper); removed with ROADMAP item 1.
	ChipWorkers int
	// Faults, when set, injects this fault plan into every simulation
	// (per-request plans in RunRequest override it). Plans key the memo, so
	// faulted and healthy runs of the same cell never collide.
	Faults *fault.Plan
	// Fidelity selects the backend rung every cell runs on ("estimate",
	// "sampled", or ""/"exact" for the cycle-exact default; per-request
	// values in RunRequest override it). Like fault plans, fidelity keys
	// both the memo and the persistent store, so a fast rung's result is
	// never recalled for an exact cell.
	Fidelity string
	// Verbose, when set, streams one line per completed run to Log.
	Verbose bool
	Log     io.Writer

	// Ctx cancels the sweep: queued cells fail fast and in-flight
	// simulations abort at their next context poll. Failures surface as
	// CellErrors wrapping ctx's error. Nil means uncancellable.
	Ctx context.Context

	// Obs receives sweep-level metrics (cells completed/failed, in-flight
	// count, simulated cycles). Per-simulation observers are deliberately
	// not wired through the Runner: parallel cells would interleave writes
	// into the same registry series. Attach an observer to a direct
	// gpu.RunWith / sac.Run call to observe one simulation.
	Obs *obs.Observer

	// OnCellDone, when set, is called after every executed cell (not
	// recalls/joins), from the executing goroutine. It must be safe for
	// concurrent use at the Runner's parallelism.
	OnCellDone func(CellResult)

	// Store, when set, is a persistent result cache shared across processes
	// (sacsweep -cache-dir, the sacd daemon): each cell's leader consults it
	// before simulating and writes successful results back. A store hit
	// still fires OnCellDone but does not count as an execution (Runs) nor
	// toward SimCycles. Store failures degrade to simulation, never to an
	// error: a failed write-back is counted by the store
	// (sacd_store_put_errors_total) and the first one is reported on Log.
	Store *store.Store

	mu   sync.Mutex
	memo map[runKey]*runEntry
	sem  chan struct{}

	execs     atomic.Int64 // completed simulations (not recalls/joins)
	simCycles atomic.Int64 // total simulated cycles across executions

	storeHits   atomic.Int64 // cells served from the persistent Store
	storeMisses atomic.Int64 // cells that consulted the Store and simulated
	putErrOnce  sync.Once    // first failed Store write-back reported on Log

	obsOnce sync.Once
	obsM    *sweepMetrics

	// Simulate is the simulation entry point; nil selects the in-process
	// gpu.RunWith. Tests swap it to model panicking or failing cells, and
	// sacsweep -remote swaps it for an executor that ships each cell to a
	// saccoord coordinator. Whatever it returns still flows through the
	// runner's memo, store, and accounting layers unchanged.
	Simulate func(gpu.Config, workload.Spec, gpu.RunOpts) (*stats.Run, error)
}

// CellResult is the per-cell progress record passed to OnCellDone.
type CellResult struct {
	Benchmark string
	Org       string
	Faults    string // fault-plan fingerprint ("" = healthy)
	Fidelity  string // backend rung the cell ran on ("exact", "sampled", "estimate")
	Cycles    int64  // simulated cycles (0 on failure)
	Err       error  // nil on success
}

// sweepMetrics are the Runner's aggregate series, registered on first use.
type sweepMetrics struct {
	ok, failed, inflight, cycles *obs.Metric
	storeHit, storeMiss          *obs.Metric
}

// sweep returns the sweep-metric handles, or nil without an observer.
func (r *Runner) sweep() *sweepMetrics {
	if r.Obs == nil || r.Obs.Metrics == nil {
		return nil
	}
	r.obsOnce.Do(func() {
		reg := r.Obs.Metrics
		r.obsM = &sweepMetrics{
			ok:        reg.Counter("sacsweep_cells_completed_total", "Sweep cells that finished successfully."),
			failed:    reg.Counter("sacsweep_cells_failed_total", "Sweep cells that failed (error or contained panic)."),
			inflight:  reg.Gauge("sacsweep_cells_inflight", "Simulations currently executing."),
			cycles:    reg.Counter("sacsweep_sim_cycles_total", "Simulated cycles across all completed cells."),
			storeHit:  reg.Counter("sacsweep_store_hits_total", "Cells served from the persistent result store."),
			storeMiss: reg.Counter("sacsweep_store_misses_total", "Cells that missed the persistent result store and simulated."),
		}
	})
	return r.obsM
}

// runKey identifies one simulation: the full configuration plus the workload
// name. ScaleInput variants encode their factor in the name, so distinct
// inputs never collide.
//
// The key is used as a map key, which requires every field of gpu.Config to
// be comparable. The compile-time assertion below enforces this: adding a
// slice, map, or function field to Config will fail to build here rather
// than silently panic (or stop deduplicating) at run time.
type runKey struct {
	cfg      gpu.Config
	name     string
	faults   string // canonical fault-plan fingerprint ("" = healthy)
	fidelity string // canonical backend rung ("" = cycle-exact)
}

// mustBeComparable exists only to be instantiated with runKey below.
func mustBeComparable[T comparable]() {}

// Compile-time guard: runKey (and therefore gpu.Config) must stay comparable.
var _ = mustBeComparable[runKey]

// runEntry is one memoized (possibly in-flight) simulation.
type runEntry struct {
	done chan struct{} // closed once res/err are valid
	res  *stats.Run
	err  error
}

// RunRequest names one simulation for Prefetch/RunAll.
type RunRequest struct {
	Cfg  gpu.Config
	Spec workload.Spec
	// Faults overrides the Runner's fault plan for this cell; nil inherits.
	Faults *fault.Plan
	// Fidelity overrides the Runner's backend rung for this cell ("" =
	// inherit; use "exact" to force cycle-exact on a Runner defaulted to a
	// fast rung).
	Fidelity string
}

// plan resolves the effective fault plan of a request.
func (r *Runner) plan(q RunRequest) *fault.Plan {
	if q.Faults != nil {
		return q.Faults
	}
	return r.Faults
}

// fidelity resolves the effective backend rung of a request: per-request
// wins, then the Runner default, canonicalised ("exact" → "") so memo and
// store keys never split on spelling. Unknown names pass through unchanged
// — they form their own (never-stored) cell and fail in the backend with a
// clear error rather than silently aliasing the exact rung.
func (r *Runner) fidelity(q RunRequest) string {
	f := q.Fidelity
	if f == "" {
		f = r.Fidelity
	}
	if n, err := backend.Normalize(f); err == nil {
		return n
	}
	return f
}

// NewRunner returns a Runner over the scaled baseline configuration.
func NewRunner() *Runner { return &Runner{Base: gpu.ScaledConfig()} }

// FastSet is a representative benchmark subset (3 SP + 3 MP spanning the
// strong and atypical cases of each group) used by the most expensive sweep
// experiments to keep serial wall time manageable. Pass
// Benchmarks = workload.Names() for full-fidelity sweeps.
func FastSet() []string { return []string{"RN", "SN", "BS", "GEMM", "BP", "DWT"} }

// specs resolves the benchmark selection.
func (r *Runner) specs() ([]workload.Spec, error) {
	names := r.Benchmarks
	if len(names) == 0 {
		names = workload.Names()
	}
	out := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// workers returns the worker-pool semaphore, sizing it on first use.
func (r *Runner) workers() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sem == nil {
		n := r.Parallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
	}
	return r.sem
}

// lookup finds or creates the entry for key. The second result reports
// whether the caller became the leader and must execute the simulation;
// followers wait on the entry's done channel instead.
func (r *Runner) lookup(key runKey) (*runEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memo == nil {
		r.memo = make(map[runKey]*runEntry)
	}
	if e, ok := r.memo[key]; ok {
		return e, false
	}
	e := &runEntry{done: make(chan struct{})}
	r.memo[key] = e
	return e, true
}

// CellError is the structured failure of one sweep cell: the simulation
// either returned an error or panicked. The supervisor converts panics into
// CellErrors so one broken cell cannot take down a whole sweep.
type CellError struct {
	Benchmark string
	Org       string
	Faults    string // fault-plan fingerprint ("" = healthy)
	Err       error  // simulation error (nil when the cell panicked)
	PanicVal  any    // recovered panic value (nil when Err is set)
	Stack     []byte // goroutine stack at the panic site
}

func (c *CellError) Error() string {
	cell := fmt.Sprintf("%s under %s", c.Benchmark, c.Org)
	if c.Faults != "" {
		cell += " with faults " + c.Faults
	}
	if c.PanicVal != nil {
		return fmt.Sprintf("eval: %s panicked: %v\n%s", cell, c.PanicVal, c.Stack)
	}
	return fmt.Sprintf("eval: %s: %v", cell, c.Err)
}

// Unwrap exposes the simulation error to errors.Is/As chains.
func (c *CellError) Unwrap() error { return c.Err }

// sim returns the simulation entry point (the fidelity-dispatching
// backend.Run by default; the exact rung is a plain gpu.RunWith call).
func (r *Runner) sim() func(gpu.Config, workload.Spec, gpu.RunOpts) (*stats.Run, error) {
	if r.Simulate != nil {
		return r.Simulate
	}
	return func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		return backend.Run(cfg, spec, o)
	}
}

// execute runs one simulation on behalf of entry e, bounded by the worker
// pool, and publishes the result to all waiters. A panicking simulation is
// contained: the entry fails with a CellError and the sweep continues.
func (r *Runner) execute(e *runEntry, cfg gpu.Config, spec workload.Spec, plan *fault.Plan, fid string) {
	defer close(e.done)
	sem := r.workers()
	sem <- struct{}{}
	defer func() { <-sem }()
	// Canceled sweep: queued cells fail fast instead of simulating.
	if r.Ctx != nil {
		if err := r.Ctx.Err(); err != nil {
			e.err = &CellError{Benchmark: spec.Name, Org: cfg.Org.String(), Faults: plan.Key(), Err: err}
			r.cellDone(e, spec, cfg, plan, fid)
			return
		}
	}
	// Persistent cache: a stored result short-circuits the simulation.
	// Fidelity is part of the address, so an estimate can never be recalled
	// for an exact cell (or vice versa).
	if r.Store != nil {
		if res, ok := r.Store.Get(store.KeyAt(cfg, spec.Name, plan.Key(), fid)); ok {
			r.storeHits.Add(1)
			if m := r.sweep(); m != nil {
				m.storeHit.Inc()
			}
			e.res = res
			r.cellDone(e, spec, cfg, plan, fid)
			return
		}
		r.storeMisses.Add(1)
		if m := r.sweep(); m != nil {
			m.storeMiss.Inc()
		}
	}
	if m := r.sweep(); m != nil {
		m.inflight.Add(1)
	}
	defer func() {
		if v := recover(); v != nil {
			e.res = nil
			e.err = &CellError{
				Benchmark: spec.Name, Org: cfg.Org.String(), Faults: plan.Key(),
				PanicVal: v, Stack: debug.Stack(),
			}
		}
		if m := r.sweep(); m != nil {
			m.inflight.Add(-1)
		}
		r.cellDone(e, spec, cfg, plan, fid)
	}()
	res, err := r.sim()(cfg, spec, gpu.RunOpts{Faults: plan, Ctx: r.Ctx, Fidelity: fid})
	if err != nil {
		e.err = &CellError{Benchmark: spec.Name, Org: cfg.Org.String(), Faults: plan.Key(), Err: err}
		return
	}
	e.res = res
	r.execs.Add(1)
	r.simCycles.Add(res.Cycles)
	if r.Store != nil {
		// Best-effort write-back; a full disk must not fail the sweep, but
		// it must not pass unseen either.
		if err := r.Store.PutRunAt(cfg, spec.Name, plan.Key(), fid, res); err != nil && r.Log != nil {
			r.putErrOnce.Do(func() {
				r.mu.Lock()
				fmt.Fprintf(r.Log, "# store write-back failed (reported once; the store counts the rest): %v\n", err)
				r.mu.Unlock()
			})
		}
	}
	if r.Verbose && r.Log != nil {
		r.mu.Lock()
		fmt.Fprintf(r.Log, "# run %-10s %-12s cycles=%-10d ipc=%.4f\n",
			spec.Name, cfg.Org, res.Cycles, res.IPC())
		r.mu.Unlock()
	}
}

// cellDone publishes one finished cell to the sweep metrics and the
// progress callback.
func (r *Runner) cellDone(e *runEntry, spec workload.Spec, cfg gpu.Config, plan *fault.Plan, fid string) {
	var cycles int64
	if e.res != nil {
		cycles = e.res.Cycles
	}
	if m := r.sweep(); m != nil {
		if e.err != nil {
			m.failed.Inc()
		} else {
			m.ok.Inc()
			m.cycles.Add(float64(cycles))
		}
	}
	if r.OnCellDone != nil {
		r.OnCellDone(CellResult{
			Benchmark: spec.Name, Org: cfg.Org.String(), Faults: plan.Key(),
			Fidelity: backend.Display(fid),
			Cycles:   cycles, Err: e.err,
		})
	}
}

// run executes (or recalls, or joins in-flight) one simulation under the
// Runner's fault plan.
func (r *Runner) run(cfg gpu.Config, spec workload.Spec) (*stats.Run, error) {
	return r.runReq(RunRequest{Cfg: cfg, Spec: spec})
}

// runReq executes (or recalls, or joins in-flight) one request.
func (r *Runner) runReq(q RunRequest) (*stats.Run, error) {
	plan := r.plan(q)
	fid := r.fidelity(q)
	e, lead := r.lookup(runKey{q.Cfg, q.Spec.Name, plan.Key(), fid})
	if lead {
		r.execute(e, q.Cfg, q.Spec, plan, fid)
	} else {
		<-e.done
	}
	return e.res, e.err
}

// Prefetch submits a run-set to the worker pool without waiting. Keys
// already cached or in flight are not resubmitted. Collect results with run
// or RunAll, which join the in-flight executions.
func (r *Runner) Prefetch(reqs []RunRequest) {
	for _, q := range reqs {
		plan := r.plan(q)
		fid := r.fidelity(q)
		if e, lead := r.lookup(runKey{q.Cfg, q.Spec.Name, plan.Key(), fid}); lead {
			go r.execute(e, q.Cfg, q.Spec, plan, fid)
		}
	}
}

// RunAll executes a run-set through the worker pool and returns results in
// request order. Duplicate keys within the set (or against earlier runs)
// execute once and share the same *stats.Run.
//
// Failed cells do not abort the sweep: every requested cell runs to
// completion, failures come back as nil slots in the result slice, and the
// returned error joins one CellError per distinct failed cell. Callers that
// can tolerate holes may inspect the slice; callers that cannot should treat
// a non-nil error as fatal as before.
func (r *Runner) RunAll(reqs []RunRequest) ([]*stats.Run, error) {
	r.Prefetch(reqs)
	out := make([]*stats.Run, len(reqs))
	var errs []error
	seen := make(map[error]bool)
	for i, q := range reqs {
		res, err := r.runReq(q)
		if err != nil {
			if !seen[err] {
				seen[err] = true
				errs = append(errs, err)
			}
			continue
		}
		out[i] = res
	}
	return out, errors.Join(errs...)
}

// runOrg is run with an organization override.
func (r *Runner) runOrg(org llc.Org, spec workload.Spec) (*stats.Run, error) {
	return r.run(r.Base.WithOrg(org), spec)
}

// Runs returns the number of distinct simulations executed so far.
func (r *Runner) Runs() int { return int(r.execs.Load()) }

// SimCycles returns the total simulated cycles across all executed runs,
// for throughput (cycles/s) reporting.
func (r *Runner) SimCycles() int64 { return r.simCycles.Load() }

// StoreHits returns the number of cells served from the persistent Store.
func (r *Runner) StoreHits() int64 { return r.storeHits.Load() }

// StoreMisses returns the number of cells that consulted the persistent
// Store, found nothing, and simulated.
func (r *Runner) StoreMisses() int64 { return r.storeMisses.Load() }

// orderedOrgs is the paper's comparison order.
func orderedOrgs() []llc.Org { return llc.Orgs() }

// printHeader emits a table header row.
func printHeader(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}
