// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each Benchmark runs the corresponding experiment (heavy
// simulations are memoized in a shared per-set runner, so a full
// `go test -bench=.` executes each distinct simulation once) and prints the
// same rows/series the paper reports; key aggregates are also attached as
// benchmark metrics.
//
// Set selection: the matrix experiments (Fig 1/8/9/10, Table 4, Fig 11/12,
// Fig 13, headline) run over all 16 workloads; the remaining sweep
// experiments (Fig 14, ablations) default to the representative FastSet.
// Set REPRO_SET=fast to shrink everything, or REPRO_SET=all to run even the
// sweeps in full.
package sac_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	sac "repro"
	"repro/internal/cache"
)

var (
	runnersMu sync.Mutex
	runners   = map[string]*sac.Runner{}
	printed   = map[string]bool{}
)

// sharedRunner returns the process-wide runner for a benchmark set so all
// benches share one memoized simulation pool.
func sharedRunner(set []string) *sac.Runner {
	key := fmt.Sprint(set)
	runnersMu.Lock()
	defer runnersMu.Unlock()
	if r, ok := runners[key]; ok {
		return r
	}
	r := sac.NewRunner()
	r.Benchmarks = set
	runners[key] = r
	return r
}

// matrixSet is the benchmark set for the per-benchmark experiments.
func matrixSet() []string {
	if os.Getenv("REPRO_SET") == "fast" {
		return sac.FastSet()
	}
	return nil // all 16
}

// sweepSet is the benchmark set for the design-space sweeps.
func sweepSet() []string {
	if os.Getenv("REPRO_SET") == "all" {
		return nil
	}
	return sac.FastSet()
}

// reportThroughput attaches the experiment engine's simulated-cycles-per-
// wall-second rate to a heavy benchmark (cycles executed by this process's
// shared runners; memoized recalls add nothing).
func reportThroughput(b *testing.B, r *sac.Runner, before int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(r.SimCycles()-before)/s, "sim-cycles/s")
	}
}

// printOnce emits an experiment's table a single time per process.
func printOnce(id string, print func()) {
	runnersMu.Lock()
	done := printed[id]
	printed[id] = true
	runnersMu.Unlock()
	if !done {
		print()
	}
}

func BenchmarkTable4_Workloads(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table4", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig1_Performance(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig1", func() { res.Print(os.Stdout) })
		b.ReportMetric(res.Groups["SP"][sac.SMSide].HMSpeedup, "SP-smside-speedup")
		b.ReportMetric(res.Groups["MP"][sac.MemorySide].HMSpeedup/res.Groups["MP"][sac.SMSide].HMSpeedup, "MP-memside-adv")
		b.ReportMetric(res.Groups["ALL"][sac.SAC].HMSpeedup, "ALL-sac-speedup")
	}
}

func BenchmarkFig8_Speedup(b *testing.B) {
	r := sharedRunner(matrixSet())
	before := r.SimCycles()
	for i := 0; i < b.N; i++ {
		res, err := r.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig8", func() { res.Print(os.Stdout) })
		b.ReportMetric(res.HM["ALL"][sac.SAC], "sac-vs-mem")
		b.ReportMetric(res.HM["ALL"][sac.SAC]/res.HM["ALL"][sac.SMSide], "sac-vs-smside")
	}
	reportThroughput(b, r, before)
}

func BenchmarkFig9_Occupancy(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig9", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig10_Bandwidth(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig10", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig11_WorkingSet(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig11", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig12_TimeVarying(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig12", func() { res.Print(os.Stdout) })
		sm, dyn := res.Speedups()
		if len(sm) > 1 {
			b.ReportMetric(dyn[0], "k1-sac-speedup")
			b.ReportMetric(dyn[1], "k2-sac-speedup")
		}
	}
}

func BenchmarkFig13_InputSets(b *testing.B) {
	r := sharedRunner(matrixSet())
	before := r.SimCycles()
	for i := 0; i < b.N; i++ {
		res, err := r.Fig13(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig13", func() { res.Print(os.Stdout) })
	}
	reportThroughput(b, r, before)
}

func BenchmarkFig14_Sensitivity(b *testing.B) {
	r := sharedRunner(sweepSet())
	before := r.SimCycles()
	for i := 0; i < b.N; i++ {
		res, err := r.Fig14(nil)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig14", func() { res.Print(os.Stdout) })
	}
	reportThroughput(b, r, before)
}

func BenchmarkHeadline(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.Headline()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("headline", func() { res.Print(os.Stdout) })
		b.ReportMetric(100*(res.AvgOver[sac.MemorySide]-1), "pct-vs-memside")
		b.ReportMetric(100*(res.AvgOver[sac.SMSide]-1), "pct-vs-smside")
		b.ReportMetric(100*(res.AvgOver[sac.Static]-1), "pct-vs-static")
		b.ReportMetric(100*(res.AvgOver[sac.Dynamic]-1), "pct-vs-dynamic")
	}
}

func BenchmarkAblationTheta(b *testing.B) {
	r := sharedRunner(sweepSet())
	for i := 0; i < b.N; i++ {
		res, err := r.AblateTheta()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-theta", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	r := sharedRunner(sweepSet())
	for i := 0; i < b.N; i++ {
		res, err := r.AblateWindow()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-window", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkAblationNoLSU(b *testing.B) {
	r := sharedRunner(sweepSet())
	for i := 0; i < b.N; i++ {
		res, err := r.AblateLSU()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-lsu", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkAblationDecisionCache(b *testing.B) {
	r := sharedRunner(sweepSet())
	for i := 0; i < b.N; i++ {
		res, err := r.AblateDecisionCache()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-cache", func() { res.Print(os.Stdout) })
	}
}

func BenchmarkAblationReprofile(b *testing.B) {
	r := sharedRunner(sweepSet())
	for i := 0; i < b.N; i++ {
		res, err := r.AblateReprofile()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-reprofile", func() { res.Print(os.Stdout) })
	}
}

// BenchmarkEABValidation scores the analytical model against measured
// behaviour: decision accuracy and bandwidth/performance correlations.
func BenchmarkEABValidation(b *testing.B) {
	r := sharedRunner(matrixSet())
	for i := 0; i < b.N; i++ {
		res, err := r.ValidateEAB()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("eabval", func() { res.Print(os.Stdout) })
		b.ReportMetric(100*res.Accuracy, "decision-accuracy-pct")
		b.ReportMetric(res.CorrMeasuredBWVsSpeedup, "bw-speedup-corr")
	}
}

// --- microbenchmarks of the core components ---

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// cycles per wall-second on a small SP workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sac.ScaledConfig()
	spec, err := sac.Benchmark("SN")
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sac.Run(cfg.WithOrg(sac.SAC), spec)
		if err != nil {
			b.Fatal(err)
		}
		cycles += run.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkEABModel measures the decision-model cost (§3.6 claims it is a
// couple dozen operations).
func BenchmarkEABModel(b *testing.B) {
	arch := sac.PaperConfig().ArchParams()
	w := sac.WorkloadInputs{RLocal: 0.4}
	w.MemSide.LLCHit, w.MemSide.LSU = 0.7, 0.5
	w.SMSide.LLCHit, w.SMSide.LSU = 0.6, 0.9
	for i := 0; i < b.N; i++ {
		d := sac.DecideEAB(arch, w, 0.05)
		if d.MemSide.Total <= 0 {
			b.Fatal("bad decision")
		}
	}
}

// BenchmarkStreamGeneration measures synthetic address-stream throughput.
func BenchmarkStreamGeneration(b *testing.B) {
	spec, err := sac.Benchmark("RN")
	if err != nil {
		b.Fatal(err)
	}
	m := sac.ScaledConfig().Machine()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		st := spec.NewStream(m, 0, i%4, 0, 0)
		for {
			_, ok := st.Next()
			if !ok {
				break
			}
			n++
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkIdleFastForward measures the next-event scheduler on a
// compute-gap-dominated workload: warps spend hundreds of cycles between
// memory accesses, so almost all simulated time is idle spans the cycle
// loop must skip rather than step. The skipped/total ratio is attached so
// regressions in skip coverage show up alongside raw speed.
func BenchmarkIdleFastForward(b *testing.B) {
	cfg := sac.ScaledConfig()
	spec, err := sac.Benchmark("SN")
	if err != nil {
		b.Fatal(err)
	}
	for i := range spec.Kernels {
		spec.Kernels[i].ComputeGap = 300
	}
	var cycles, skipped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sac.Run(cfg.WithOrg(sac.MemorySide), spec)
		if err != nil {
			b.Fatal(err)
		}
		cycles += run.Cycles
		skipped += run.Skipped
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	if cycles > 0 {
		b.ReportMetric(float64(skipped)/float64(cycles), "skipped-frac")
	}
}

// BenchmarkCacheLookup measures the lookup hot path of the one
// set-associative array at the two shapes the simulator builds it in: an
// SM's private L1 and an LLC slice.
func BenchmarkCacheLookup(b *testing.B) {
	shapes := []struct {
		name string
		cfg  cache.Config
	}{
		{"l1", cache.Config{Sets: 16, Ways: 8, LineBytes: 128, Sectors: 1}},
		{"llc", cache.Config{Sets: 512, Ways: 16, LineBytes: 128, Sectors: 4, WriteBack: true}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			c := cache.New(sh.cfg)
			lines := uint64(sh.cfg.Lines())
			sectorMask := sh.cfg.Sectors - 1
			lcg := uint64(1)
			for i := uint64(0); i < lines; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				c.Fill(lcg%(2*lines), int(lcg>>60)&sectorMask, cache.PartAll, false)
			}
			lcg = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				c.Lookup(lcg%(2*lines), int(lcg>>60)&sectorMask)
			}
		})
	}
}
