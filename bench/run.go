package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload prints: the environment, the
// workload's parameters, the outcome of the output checks, the sample counts
// behind each statistic, and the metrics by name. EndToEnd always comes from
// untraced passes; PerLayer is present only for a traced run.
type report struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Trace        bool                   `json:"trace"`
	Size         string                 `json:"size"`
	Seconds      float64                `json:"seconds"`
	Env          envBlock               `json:"env"`
	Params       map[string]any         `json:"params"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	Samples      map[string]int         `json:"samples"`
	Passes       []passSummary          `json:"passes"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

// passSummary is one pass as measured, in run order, so a trend across the
// run (heap growth, warm-up) is visible behind the medians.
type passSummary struct {
	Traced  bool    `json:"traced"`
	Cells   int     `json:"cells"`
	Failed  int     `json:"failed"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	Mallocs uint64  `json:"mallocs"`
	// Host is the host's slowdown against the reference box around the
	// pass; the metrics divide the pass's times by it.
	Host float64 `json:"host_slowdown"`
}

// runOpts selects one run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	size    string
	outDir  string
}

// traceOverhead is 1 − traced ÷ untraced cells per CPU-second, taken pass by
// pass: each traced pass against the untraced passes run nearest before and
// after it, so drift over the run cancels; then the midmean of those ratios.
func traceOverhead(passes []passSummary) float64 {
	rate := func(p passSummary) float64 { return float64(p.Cells-p.Failed) / (p.CPUS / p.Host) }
	var ratios []float64
	for i, p := range passes {
		if !p.Traced {
			continue
		}
		var near []float64
		for j := i - 1; j >= 0; j-- {
			if !passes[j].Traced {
				near = append(near, rate(passes[j]))
				break
			}
		}
		for j := i + 1; j < len(passes); j++ {
			if !passes[j].Traced {
				near = append(near, rate(passes[j]))
				break
			}
		}
		if len(near) > 0 {
			ratios = append(ratios, rate(p)/midmean(near))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 1 - midmean(ratios)
}

// preparer is implemented by instances that need reference results computed
// before the timed phase; the time is the benchmark's own, not set-up.
type preparer interface{ prepare() error }

// gaugeCounters are instance counters that are levels, not running totals.
var gaugeCounters = map[string]bool{"cluster.placement_skew": true, "store.hot_len": true}

// measured is everything a run collected before any metric is computed.
type measured struct {
	setupS        []float64 // set-up times, reference-box seconds
	plain, traced []passResult
	summaries     []passSummary // every pass, in run order
	profile       []cpuSample   // CPU profile of the traced passes
	before, after map[string]float64
	agreement     float64 // estimate rung vs golden: decisions reproduced
	relErr        float64 // ... and median relative cycle error
}

func (m *measured) all() []passResult {
	return append(append([]passResult(nil), m.plain...), m.traced...)
}

// runWorkload sets the workload up (several times, for a median set-up time),
// runs its fixed number of passes and assembles the report. In a traced run
// blocks of untraced and traced passes alternate: the untraced ones give the
// end-to-end numbers and the baseline for the tracing overhead, the traced
// ones the spans and the CPU profile.
func runWorkload(w workload, o runOpts) (*report, error) {
	runStart, cpuStart := time.Now(), cpuTime()
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &runEnv{seed: o.seed, size: o.size, tmpDir: tmp, golden: golden}
	if o.trace {
		e.tr = newTracer()
	}

	var m measured
	setups := 5
	if e.smoke() {
		setups = 1
	}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		host := hostSlowdown()
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw := time.Since(t0).Seconds()
		m.setupS = append(m.setupS, raw/((host+hostSlowdown())/2))
	}
	defer inst.close()
	if p, ok := inst.(preparer); ok {
		if err := p.prepare(); err != nil {
			return nil, fmt.Errorf("%s: reference results: %w", w.name, err)
		}
	}
	if m.agreement, m.relErr, err = accuracy(golden); err != nil {
		return nil, err
	}

	passes := w.passes(o.seconds, o.size)
	// Starting and stopping the CPU profile costs a fraction of a second, so
	// a traced run alternates blocks of passes, not single ones.
	block := max(1, passes/8)
	m.before = inst.counters()
	for n := 0; n < passes; n++ {
		// Collect between passes so each starts from the same heap state
		// and none pays for its predecessor's garbage.
		runtime.GC()
		traced := o.trace && (n/block)%2 == 1
		var buf bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
			e.tr.on.Store(true)
		}
		pr := inst.pass(n)
		if traced {
			e.tr.on.Store(false)
			pprof.StopCPUProfile()
			samples, err := decodeProfile(buf.Bytes())
			if err != nil {
				return nil, err
			}
			m.profile = append(m.profile, samples...)
			m.traced = append(m.traced, pr)
		} else {
			m.plain = append(m.plain, pr)
		}
		m.summaries = append(m.summaries, passSummary{traced, pr.cells, pr.failed, pr.Wall.Seconds(), pr.CPU.Seconds(), pr.Mallocs, pr.Host})
	}
	m.after = inst.counters()

	rep := &report{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Size: o.size, Seconds: o.seconds,
		Env: readEnv(), Params: w.params(e),
		Samples:  map[string]int{"setups": len(m.setupS), "passes": len(m.plain), "traced_passes": len(m.traced), "profile_samples": len(m.profile)},
		Passes:   m.summaries,
		EndToEnd: map[string]metricValue{},
	}
	for _, pr := range m.all() {
		rep.Attempted += pr.cells
		rep.Failed += pr.failed
		if rep.FirstFailure == "" {
			rep.FirstFailure = pr.firstErr
		}
	}
	rep.Correct = rep.Failed == 0

	batchMs := m.batchMs()
	rep.Samples["batches"] = len(batchMs)
	e2e := m.endToEnd(batchMs)
	for _, d := range endToEnd {
		rep.EndToEnd[d.Name] = metricValue{e2e[d.Name], d.Unit}
	}
	if !o.trace {
		return rep, nil
	}

	layer, err := m.perLayer(w, e.tr.aggregate(), batchMs)
	if err != nil {
		return nil, err
	}
	budget := 20 * time.Millisecond
	if e.smoke() {
		budget = time.Millisecond
	}
	probes, err := runProbes(e, budget)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		layer[name] = v
	}
	if w.name == serveWarm {
		// Only here do the handler and the probe do the same work per job.
		layer["server.http_ns_per_job"] = math.Max(0, layer["server.handle_ns_per_job"]-layer["server.submit_batch_ns_per_job"])
	}
	layer["harness.wall_s"] = time.Since(runStart).Seconds()
	layer["harness.cpu_s"] = (cpuTime() - cpuStart).Seconds()

	rep.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		rep.PerLayer[d.Name] = metricValue{layer[d.Name], d.Unit}
	}
	rep.TraceFile = filepath.Join(o.outDir, w.name+".trace.json")
	if err := e.tr.writeChrome(rep.TraceFile); err != nil {
		return nil, err
	}
	return rep, nil
}

// perPass is the midmean over passes of f.
func perPass(prs []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(prs))
	for i, pr := range prs {
		xs[i] = f(pr)
	}
	return midmean(xs)
}

func goodCells(pr passResult) float64   { return float64(pr.cells - pr.failed) }
func cellsPerCPU(pr passResult) float64 { return goodCells(pr) / pr.refCPU() }

// batchMs returns every batch latency of the untraced passes, in
// reference-box milliseconds.
func (m *measured) batchMs() []float64 {
	var out []float64
	for _, pr := range m.plain {
		for _, ms := range pr.batchMs {
			out = append(out, ms/pr.Host)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics, from untraced passes only.
func (m *measured) endToEnd(batchMs []float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(m.setupS),
		"cells_per_s":        perPass(m.plain, func(pr passResult) float64 { return goodCells(pr) / pr.refWall() }),
		"cells_per_cpu_s":    perPass(m.plain, cellsPerCPU),
		"batch_p50_ms":       median(batchMs),
		"allocs_per_cell":    perPass(m.plain, func(pr passResult) float64 { return float64(pr.Mallocs) / float64(pr.cells) }),
		"peak_rss_mb":        peakRSSMiB(),
		"decision_agreement": m.agreement,
	}
}

// perLayer computes the counter, span and profile metrics of the per-layer
// table (the probes are added by the caller). agg is the trace aggregated by
// span name.
func (m *measured) perLayer(w workload, agg map[string]spanTotals, batchMs []float64) (map[string]float64, error) {
	all := m.all()
	layer := map[string]float64{"backend.estimate_cycles_rel_err": m.relErr}

	// (c) Simulated counters: per pass, and the same in every pass.
	sim := all[0].sim
	for _, pr := range all[1:] {
		if pr.sim != sim && pr.failed == 0 {
			return nil, fmt.Errorf("%s: simulated counters differ between passes of one run: %+v vs %+v", w.name, pr.sim, sim)
		}
	}
	layer["gpu.sim_cycles"] = float64(sim.Cycles)
	layer["gpu.skipped_cycles"] = float64(sim.Skipped)
	layer["sm.memops"] = float64(sim.MemOps)
	layer["cache.l1_hits"] = float64(sim.L1Hits)
	layer["cache.l1_misses"] = float64(sim.L1Misses)
	layer["llc.hits"] = float64(sim.LLCHits)
	layer["llc.misses"] = float64(sim.LLCMisses)
	layer["xchip.ring_bytes"] = float64(sim.RingBytes)
	layer["dram.bytes"] = float64(sim.DRAMBytes)
	layer["core.reconfigs"] = float64(sim.Reconfigs)
	layer["core.drain_cycles"] = float64(sim.DrainCycles)
	layer["gpu.sim_cycles_per_cpu_s"] = perPass(m.plain, func(pr passResult) float64 { return float64(pr.sim.Cycles) / pr.refCPU() })

	// (c) Public counters: running totals per pass, levels as they stand.
	for name, v := range m.after {
		if gaugeCounters[name] {
			layer[name] = v
		} else {
			layer[name] = (v - m.before[name]) / float64(len(all))
		}
	}
	for _, src := range []string{"sim", "store", "memo", "dedup"} {
		var n int
		for _, pr := range all {
			n += pr.sources[src]
		}
		layer["server.src_"+src] = float64(n) / float64(len(all))
	}
	layer["runtime.gc_cycles"] = perPass(m.plain, func(pr passResult) float64 { return float64(pr.GCCycles) })
	layer["runtime.gc_pause_ms"] = perPass(m.plain, func(pr passResult) float64 { return float64(pr.GCPauseNs) / 1e6 })

	// (s) Spans: totals over the traced passes, per cell of those passes.
	var tCells, tWall, tCPU, tHook, tStepped, tMemOps float64
	for _, pr := range m.traced {
		tCells += float64(pr.cells)
		tWall += pr.Elapsed.Seconds() * float64(pr.clients)
		tCPU += pr.CPU.Seconds()
		tHook += pr.hookCPU
		tStepped += float64(pr.sim.Cycles - pr.sim.Skipped)
		tMemOps += float64(pr.sim.MemOps)
	}
	perCell := func(ns int64) float64 { return float64(ns) / tCells }
	layer["gpu.build_ns_per_cell"] = perCell(agg["gpu.build"].total)
	layer["gpu.run_ns_per_cell"] = perCell(agg["gpu.run"].total)
	if run := agg["gpu.run"].total; run > 0 {
		layer["gpu.host_ns_per_stepped_cycle"] = float64(run) / tStepped
		layer["gpu.host_ns_per_memop"] = float64(run) / tMemOps
		layer["eval.overhead_share"] = (tCPU - tHook) / tCPU
	}
	layer["backend.estimate_ns_per_cell"] = perCell(agg["backend.estimate"].total)
	layer["eval.self_ns_per_cell"] = perCell(agg["eval.run_all"].self())
	layer["server.handle_ns_per_job"] = perCell(agg["server.handle"].total)
	layer["cluster.handle_ns_per_job"] = perCell(agg["cluster.handle"].total)
	layer["cluster.wait_ns_per_job"] = perCell(agg["cluster.watch"].total)
	if d := agg["cluster.dispatch"]; d.count > 0 {
		layer["cluster.dispatch_ns_per_job"] = float64(d.total) / float64(d.count)
	}
	layer["client.submit_ns_per_job"] = perCell(agg["client.submit"].total)
	layer["client.wait_ns_per_job"] = perCell(agg["client.wait"].total)
	layer["client.self_ns_per_job"] = perCell(agg["client.submit"].self() + agg["client.wait"].self())
	layer["harness.self_ns_per_cell"] = perCell(agg["harness.pass"].self())
	layer["harness.span_sum_share"] = float64(agg["harness.pass"].total) / 1e9 / tWall
	if len(batchMs) >= 1000 { // a p99 needs ten samples beyond it
		layer["client.batch_p99_ms"] = quantile(batchMs, 0.99)
	}

	// (cpu) Profile shares, and what tracing cost.
	for l, share := range cpuShares(m.profile) {
		layer["cpu_share."+l] = share
	}
	layer["harness.trace_overhead"] = traceOverhead(m.summaries)
	layer["harness.host_slowdown"] = perPass(all, func(pr passResult) float64 { return pr.Host })
	return layer, nil
}
