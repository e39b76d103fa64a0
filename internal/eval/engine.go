package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
)

// CellResult is the per-cell progress record passed to OnCellDone.
type CellResult struct {
	Benchmark string
	Org       string
	Faults    string // fault-plan fingerprint ("" = healthy)
	Fidelity  string // backend rung the cell ran on ("exact" or "estimate")
	Cycles    int64  // simulated cycles (0 on failure)
	Twin      bool   // answered by its SAC twin's run, not simulated
	Err       error  // nil on success
}

// CellError is the structured failure of one sweep cell: the simulation
// either returned an error or panicked, and the engine contained the panic.
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

// cellError is the CellError of j's failed execution.
func cellError(j *jobs.Job, err error) *CellError {
	c := &CellError{Benchmark: j.Spec.Name, Org: j.Cfg.Org.String(), Faults: j.Plan.Key(), Err: err}
	var p *jobs.PanicError
	if errors.As(err, &p) {
		c.Err, c.PanicVal, c.Stack = nil, p.Value, p.Stack
	}
	return c
}

// table builds, on first use, the Runner's job table: no HTTP, no journal,
// no retention sweep, so its memory is its flights.
func (r *Runner) table() *jobs.Table {
	r.once.Do(func() {
		reg := obs.NewRegistry()
		if r.Obs != nil && r.Obs.Metrics != nil {
			reg = r.Obs.Metrics
		}
		r.ok = reg.Counter("sacsweep_cells_completed_total", "Sweep cells that finished successfully.")
		r.failed = reg.Counter("sacsweep_cells_failed_total", "Sweep cells that failed (error or contained panic).")
		r.inflight = reg.Gauge("sacsweep_cells_inflight", "Simulations currently executing.")
		r.cycles = reg.Counter("sacsweep_sim_cycles_total", "Simulated cycles across all completed cells.")
		r.hits = reg.Counter("sacsweep_store_hits_total", "Cells served from the persistent result store.")
		r.misses = reg.Counter("sacsweep_store_misses_total", "Cells that missed the persistent result store.")
		r.twins = reg.Counter("sacsweep_cells_twinned_total", "Memory-side cells answered by their SAC twin's run instead of simulating.")
		n := r.Parallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.slots = make(chan struct{}, n)
		r.t = jobs.New(jobs.Config{Execute: r.execute, OnTerminal: r.settled})
	})
	return r.t
}

// identity resolves a request to its cell. An unknown rung passes through
// unchanged: it keys a cell of its own and fails in the backend.
func (r *Runner) identity(q RunRequest) *jobs.Identity {
	plan, fid := q.Faults, q.Fidelity
	if plan == nil {
		plan = r.Faults
	}
	if fid == "" {
		fid = r.Fidelity
	}
	if n, err := backend.Normalize(fid); err == nil {
		fid = n
	}
	return &jobs.Identity{Cfg: q.Cfg, Spec: q.Spec, Plan: plan, Fidelity: fid,
		Key: store.KeyAt(q.Cfg, q.Spec.Name, plan.Key(), fid)}
}

// execute is the Runner's executor: it takes one of Parallelism slots, which
// settled gives back, and runs the shared store-backed step over Simulate,
// or takes a remote run-set's answer (writing a fleet result back). A store
// hit is decoded here, once, so every request of the cell shares one
// *stats.Run. A cell that took its SAC twin's run settles with sourceTwin.
func (r *Runner) execute(_ context.Context, j *jobs.Job) jobs.Outcome {
	r.slots <- struct{}{}
	if r.Ctx != nil && r.Ctx.Err() != nil {
		return jobs.Outcome{Err: r.Ctx.Err()}
	}
	a, answered := jobs.Outcome{}, r.Remote != nil
	if answered { // take what the remote run-set holds for j, if anything
		var v any
		v, answered = r.answers.LoadAndDelete(j)
		a, _ = v.(jobs.Outcome)
	}
	twin := false
	sim := func() (run *stats.Run, err error) {
		if r.Store != nil {
			r.misses.Inc()
		}
		if answered {
			return a.Run, a.Err
		}
		r.inflight.Add(1)
		defer r.inflight.Add(-1)
		o := gpu.RunOpts{Faults: j.Plan, Ctx: r.Ctx, Fidelity: j.Fidelity}
		if r.Simulate != nil {
			return r.Simulate(j.Cfg, j.Spec, o)
		}
		run, twin, err = r.runs.RunCell(j.Cfg, j.Spec, o)
		return run, err
	}
	out := a // a store hit
	switch {
	case !answered:
		out = jobs.Simulate(j, r.Store, sim, r.logf)
	case a.Source != client.SourceStore:
		out = jobs.WriteBack(j, r.Store, sim, r.logf)
	}
	if twin {
		out.Source = sourceTwin
	}
	if out.Raw != nil {
		run := new(stats.Run)
		if err := json.Unmarshal(out.Raw, run); err != nil {
			return jobs.Outcome{Err: err}
		}
		out.Run, out.Raw = run, nil
	}
	return out
}

// sourceTwin is the Source a Runner cell settles with when it took its SAC
// twin's run: it executed, and simulated nothing. Only the Runner's own
// table, which no client reads, carries it.
const sourceTwin = "twin"

// settled is the Runner's terminal hook. It runs on the executing goroutine
// before any request of the cell returns. For a cell that executed — even by
// panicking — it reports the cell and then frees the execution's slot, so
// the report, on which bench's pass meter laps, still owns the slot. A
// Runner's jobs have no deadline and are never registered, so none can be
// canceled: every job that settles with a source of its own ran execute.
func (r *Runner) settled(j *jobs.Job, _ string, out jobs.Outcome) {
	if out.Source == client.SourceDedup || out.Source == client.SourceMemo {
		return
	}
	defer func() { <-r.slots }()
	c := CellResult{Benchmark: j.Spec.Name, Org: j.Cfg.Org.String(), Faults: j.Plan.Key(),
		Fidelity: backend.Display(j.Fidelity), Cycles: out.Cycles}
	if out.Err != nil {
		c.Err = cellError(j, out.Err)
		r.failed.Inc()
	} else {
		r.ok.Inc()
		r.cycles.Add(float64(out.Cycles))
	}
	switch out.Source {
	case client.SourceStore:
		r.hits.Inc()
	case sourceTwin:
		r.twins.Inc()
		c.Twin = true
	}
	if r.OnCellDone != nil {
		r.OnCellDone(c)
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.logMu.Lock()
		defer r.logMu.Unlock()
		fmt.Fprintf(r.Log, "# "+format+"\n", args...)
	}
}
