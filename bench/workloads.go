package main

import (
	"fmt"
	"math/rand"

	sac "repro"
)

// Workload names (fixed: later issues cite them).
const (
	exactSweep    = "exact_sweep"
	estimateSweep = "estimate_sweep"
	serveWarm     = "serve_warm"
	fleetCold     = "fleet_cold"
)

// Sizes: full is what BENCHMARK.json measures; smoke is the seconds-long
// variant the package test runs.
const (
	sizeFull  = "full"
	sizeSmoke = "smoke"
)

// batchCells is the batch size of both served workloads, and the chunk the
// in-process sweeps time as one "batch", so batch_p50_ms compares like with
// like.
const batchCells = 64

// cell is one op: one (config, benchmark, org, fidelity) simulation.
type cell struct {
	cfg      sac.Config // carries the org
	spec     sac.Spec
	fidelity sac.Fidelity // "" = cycle-exact
}

// simCounters are the simulated statistics summed over a pass's verified
// results. They repeat exactly from run to run; a change that only speeds
// the simulator up must leave every one of them identical.
type simCounters struct {
	Cycles, Skipped, MemOps int64
	L1Hits, L1Misses        int64
	LLCHits, LLCMisses      int64
	RingBytes, DRAMBytes    int64
	Reconfigs, DrainCycles  int64
}

func (c *simCounters) add(st *sac.Stats) {
	c.Cycles += st.Cycles
	c.Skipped += st.Skipped
	c.MemOps += st.MemOps
	c.L1Hits += st.L1Hits
	c.L1Misses += st.L1Misses
	c.LLCHits += st.LLCHits
	c.LLCMisses += st.LLCMisses
	c.RingBytes += st.RingBytes
	c.DRAMBytes += st.DRAMBytes
	c.Reconfigs += st.Reconfigs
	c.DrainCycles += st.DrainCycles
}

// passResult is what one pass — a fixed unit of work — measured.
type passResult struct {
	reading
	cells    int
	failed   int
	firstErr string    // first failure, for the report
	batchMs  []float64 // one latency per batch in the pass
	clients  int       // client goroutines that ran the pass
	sim      simCounters
	sources  map[string]int // served workloads: status Source → cells
	hookCPU  float64        // exact_sweep traced: CPU-s inside the direct runs
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = fmt.Sprintf(format, args...)
	}
}

// instance is a set-up workload ready to run passes.
type instance interface {
	// pass runs pass number n. With a tracer that is on, it also records
	// spans around the calls it makes.
	pass(n int) passResult
	// counters returns the layer counters the workload's public getters
	// expose, cumulative since set-up.
	counters() map[string]float64
	close()
}

// runEnv is what set-up gets: the seed (which only permutes cell order,
// batch composition and fleet_cold's key offsets), the size, a scratch
// directory inside the checkout, and the tracer of a traced run (nil
// otherwise).
type runEnv struct {
	seed   int64
	size   string
	tmpDir string
	tr     *tracer
	golden *goldenFile
}

func (e *runEnv) smoke() bool { return e.size == sizeSmoke }

// What a generator is for; each purpose of each pass gets its own stream.
const (
	rngOrder   = iota + 1 // cell order of a pass
	rngKeys               // fleet_cold: first key offset
	rngWarmup             // fleet_cold: shapes of the warm-up batch
	rngClient0            // serve_warm: client i draws from rngClient0+i
)

// rng returns the deterministic generator for one purpose of one pass.
func (e *runEnv) rng(purpose, n int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(purpose)*7919 + int64(n)))
}

// workload describes one of the four workloads.
type workload struct {
	name string
	// passSeconds is how long one pass takes on the reference box; a run of
	// a given length does seconds ÷ passSeconds passes, at least minPasses.
	passSeconds float64
	minPasses   int
	setup       func(e *runEnv) (instance, error)
	// params describes the workload's parameters for the report.
	params func(e *runEnv) map[string]any
}

// passes is the pass count of a run of the given length. Work is fixed per
// run (not "loop until the clock runs out") so counts and memory repeat
// exactly and a faster program is not charged for doing more.
func (w workload) passes(seconds float64, size string) int {
	if size == sizeSmoke {
		return 2
	}
	return max(w.minPasses, int(seconds/w.passSeconds+0.5))
}

var workloads = []workload{exactSweepWorkload, estimateSweepWorkload, serveWarmWorkload, fleetColdWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// estimateUniverse is the 256-cell universe of remote_bench_test.go: all 16
// benchmarks × 4 orgs × 4 workload scales on ScaledConfig at the estimate
// rung (smoke: 4 benchmarks × 4 orgs × 2 scales).
func estimateUniverse(size string) []cell {
	orgs := []sac.Org{sac.SAC, sac.MemorySide, sac.SMSide, sac.Static}
	scales := []int{256, 384, 512, 640}
	specs := sac.Benchmarks()
	if size == sizeSmoke {
		specs, scales = specs[:4], scales[:2]
	}
	var cells []cell
	for _, spec := range specs {
		for _, org := range orgs {
			for _, scale := range scales {
				cfg := sac.ScaledConfig().WithOrg(org)
				cfg.WorkloadScale = scale
				cells = append(cells, cell{cfg: cfg, spec: spec, fidelity: sac.FidelityEstimate})
			}
		}
	}
	return cells
}

// inProcess supplies the instance methods a workload with no daemon, store
// or fleet of its own has nothing to do in.
type inProcess struct{}

func (inProcess) counters() map[string]float64 { return nil }
func (inProcess) close()                       {}

// referenceResults runs every cell in process and returns the results and
// their canonical bytes: what a served or repeated run of the cell must equal.
func referenceResults(cells []cell) ([]*sac.Stats, [][]byte, error) {
	sts := make([]*sac.Stats, len(cells))
	raw := make([][]byte, len(cells))
	for i, c := range cells {
		st, err := runCell(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s in process: %w", c.spec.Name, c.cfg.Org, err)
		}
		sts[i], raw[i] = st, canonicalJSON(st)
	}
	return sts, raw, nil
}

// runCell simulates one cell in process, serially.
func runCell(c cell) (*sac.Stats, error) {
	return sac.Run(c.cfg, c.spec, sac.WithFidelity(c.fidelity), sac.WithWorkers(1))
}

// accuracy scores the estimate rung against the golden cycle-exact SAC runs
// of the 16 benchmarks on ScaledConfig: the share of benchmarks whose
// per-kernel org decisions it reproduces, and the median relative error of
// its cycle counts. Every speed number of a non-exact rung is printed next
// to these.
func accuracy(g *goldenFile) (agreement, cyclesRelErr float64, err error) {
	var agree int
	var errs []float64
	for _, spec := range sac.Benchmarks() {
		want, ok := g.ScaledSAC[spec.Name]
		if !ok {
			return 0, 0, fmt.Errorf("golden: no scaled SAC cell for %s (run -regen-golden)", spec.Name)
		}
		st, rerr := sac.Run(sac.ScaledConfig().WithOrg(sac.SAC), spec, sac.WithFidelity(sac.FidelityEstimate))
		if rerr != nil {
			return 0, 0, rerr
		}
		if fmt.Sprint(kernelOrgs(st)) == fmt.Sprint(want.KernelOrgs) {
			agree++
		}
		d := float64(st.Cycles - want.Cycles)
		if d < 0 {
			d = -d
		}
		errs = append(errs, d/float64(want.Cycles))
	}
	return float64(agree) / float64(len(g.ScaledSAC)), median(errs), nil
}
