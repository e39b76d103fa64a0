package main

import (
	"bytes"
	"fmt"
	"time"

	sac "repro"
	"repro/internal/eval"
	"repro/internal/gpu"
	"repro/internal/stats"
	wl "repro/internal/workload"
)

// sweepDivisor shrinks ScaledConfig for exact_sweep: footprints, LLC and L1
// are all divided by it, so every footprint:capacity ratio of ScaledConfig
// is kept (SAC takes the same per-kernel decisions) while a 21-cell pass
// drops from ~18 CPU-s to ~5, and a 15 s run holds several passes to take a
// median over.
const sweepDivisor = 4

func sweepConfig() sac.Config {
	cfg := sac.ScaledConfig()
	cfg.WorkloadScale *= sweepDivisor
	cfg.LLCBytesPerChip /= sweepDivisor
	cfg.L1BytesPerSM /= sweepDivisor
	return cfg
}

// exactSweepCells is the Fig-8-style cell set: the 6 FastSet benchmarks
// (3 SP + 3 MP, so an LLC- or ring-path change that helps one sharing class
// and costs the other shows) plus BFS, whose kernels make SAC reconfigure,
// under memory-side, SM-side and SAC. Smoke keeps only SN.
func exactSweepCells(size string) []cell {
	names := append(sac.FastSet(), "BFS")
	if size == sizeSmoke {
		names = []string{"SN"}
	}
	var cells []cell
	for _, name := range names {
		spec, err := sac.Benchmark(name)
		if err != nil {
			panic(err) // catalog names are static
		}
		for _, org := range []sac.Org{sac.MemorySide, sac.SMSide, sac.SAC} {
			cells = append(cells, cell{cfg: sweepConfig().WithOrg(org), spec: spec})
		}
	}
	return cells
}

var exactSweepWorkload = workload{
	name:        exactSweep,
	passSeconds: 5.6,
	minPasses:   2,
	setup:       setupExactSweep,
	params: func(e *runEnv) map[string]any {
		return map[string]any{
			"cells_per_pass": len(exactSweepCells(e.size)),
			"config":         fmt.Sprintf("ScaledConfig with footprints, LLC and L1 / %d", sweepDivisor),
			"orgs":           "memory-side, SM-side, SAC",
			"parallelism":    1,
			"chip_workers":   1,
		}
	},
}

type exactInst struct {
	inProcess
	e     *runEnv
	cells []cell
}

func newSweepRunner() *eval.Runner {
	return &eval.Runner{Base: sweepConfig(), Parallelism: 1, ChipWorkers: 1}
}

// setupExactSweep builds the cell list and runs one warm-up cell through a
// throwaway runner so the heap has grown and lazy initialisation is done
// before the first timed pass.
func setupExactSweep(e *runEnv) (instance, error) {
	in := &exactInst{e: e, cells: exactSweepCells(e.size)}
	for _, c := range in.cells {
		if _, ok := e.golden.Sweep[sweepKey(c.spec.Name, c.cfg.Org)]; !ok {
			return nil, fmt.Errorf("golden: no sweep cell %s (run -regen-golden)", sweepKey(c.spec.Name, c.cfg.Org))
		}
	}
	warm, err := sac.Benchmark("SN")
	if err != nil {
		return nil, err
	}
	_, err = newSweepRunner().RunAll([]eval.RunRequest{{Cfg: sweepConfig().WithOrg(sac.SAC), Spec: warm}})
	return in, err
}

// pass sweeps every cell once, cold: a fresh Runner (no memo, no store)
// executes them serially through RunAll in a seeded order.
func (in *exactInst) pass(n int) passResult {
	order := in.e.rng(rngOrder, n).Perm(len(in.cells))
	reqs := make([]eval.RunRequest, len(order))
	for i, ci := range order {
		reqs[i] = eval.RunRequest{Cfg: in.cells[ci].cfg, Spec: in.cells[ci].spec}
	}
	r := newSweepRunner()
	pr := passResult{cells: len(reqs), clients: 1}
	tr := in.e.tr

	// The host's speed drifts within a 5-second pass, so the meter laps after
	// every cell: Runner.OnCellDone fires on the executing goroutine, and
	// cells run one at a time.
	m := startPassMeter()
	r.OnCellDone = func(eval.CellResult) { m.lap() }
	root := tr.begin("harness.pass", -1, tidClient0)
	all := tr.begin("eval.run_all", root, tidClient0)
	if all >= 0 {
		// Traced: run each cell the way gpu.RunWith does, with a span around
		// building the system and one around running it, and meter the CPU
		// the direct runs take so eval's own overhead can be told apart.
		r.Simulate = func(cfg gpu.Config, spec wl.Spec, o gpu.RunOpts) (*stats.Run, error) {
			c0 := cpuTime()
			defer func() { pr.hookCPU += (cpuTime() - c0).Seconds() }()
			id := tr.begin("gpu.build", all, tidClient0)
			sys, err := gpu.New(cfg, spec)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if o.Workers != 0 {
				sys.SetWorkers(o.Workers)
			}
			id = tr.begin("gpu.run", all, tidClient0)
			st, err := sys.Run()
			tr.end(id)
			return st, err
		}
	}
	res, _ := r.RunAll(reqs) // failed cells come back as nil slots
	tr.end(all)
	tr.end(root)
	pr.reading = m.stop()

	pr.batchMs = []float64{float64(pr.Wall.Nanoseconds()) / 1e6}
	for i, st := range res {
		c := in.cells[order[i]]
		key := sweepKey(c.spec.Name, c.cfg.Org)
		if st == nil {
			pr.fail("%s: simulation failed", key)
			continue
		}
		if diff := in.e.golden.Sweep[key].check(st); diff != "" {
			pr.fail("%s: %s", key, diff)
			continue
		}
		pr.sim.add(st)
	}
	return pr
}

var estimateSweepWorkload = workload{
	name:        estimateSweep,
	passSeconds: 0.3,
	minPasses:   4,
	setup:       setupEstimateSweep,
	params: func(e *runEnv) map[string]any {
		return map[string]any{
			"cells_per_pass": len(estimateUniverse(e.size)),
			"universe":       "16 benchmarks x {SAC, memory-side, SM-side, static} x WorkloadScale {256,384,512,640} on ScaledConfig",
			"fidelity":       string(sac.FidelityEstimate),
			"batch_cells":    batchCells,
		}
	},
}

type estimateInst struct {
	inProcess
	e     *runEnv
	cells []cell
	refs  [][]byte // canonical result of each cell, from the warm-up pass
}

// setupEstimateSweep builds the universe and runs it once: the warm-up pass
// that also yields the reference bytes every timed result is compared with
// (the rung is deterministic — same inputs, same bytes).
func setupEstimateSweep(e *runEnv) (instance, error) {
	in := &estimateInst{e: e, cells: estimateUniverse(e.size)}
	var err error
	_, in.refs, err = referenceResults(in.cells)
	return in, err
}

func (in *estimateInst) pass(n int) passResult {
	order := in.e.rng(rngOrder, n).Perm(len(in.cells))
	results := make([]*sac.Stats, len(order))
	errs := make([]error, len(order))
	pr := passResult{cells: len(order), clients: 1}
	tr := in.e.tr

	m := startPassMeter()
	root := tr.begin("harness.pass", -1, tidClient0)
	for lo := 0; lo < len(order); lo += batchCells {
		t0 := time.Now()
		for i := lo; i < min(lo+batchCells, len(order)); i++ {
			id := tr.begin("backend.estimate", root, tidClient0)
			results[i], errs[i] = runCell(in.cells[order[i]])
			tr.end(id)
		}
		pr.batchMs = append(pr.batchMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	tr.end(root)
	pr.reading = m.stop()

	for i, st := range results {
		c := in.cells[order[i]]
		switch {
		case errs[i] != nil:
			pr.fail("%s/%s: %v", c.spec.Name, c.cfg.Org, errs[i])
		case st.Fidelity != string(sac.FidelityEstimate) || st.Cycles <= 0:
			pr.fail("%s/%s: not an estimate result (fidelity %q, cycles %d)", c.spec.Name, c.cfg.Org, st.Fidelity, st.Cycles)
		case !bytes.Equal(canonicalJSON(st), in.refs[order[i]]):
			pr.fail("%s/%s: result differs from the warm-up run of the same cell", c.spec.Name, c.cfg.Org)
		default:
			pr.sim.add(st)
		}
	}
	return pr
}
