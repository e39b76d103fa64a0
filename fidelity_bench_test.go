package sac_test

import (
	"testing"

	sac "repro"
)

// decisionSweep runs the full 16-workload SAC decision sweep serially at one
// fidelity. Serial on purpose: the estimate-vs-exact speedup recorded in
// BENCH_pr8.json is a per-core comparison, not a parallelism contest.
func decisionSweep(b *testing.B, f sac.Fidelity) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	names := sac.BenchmarkNames()
	specs := make([]sac.Workload, len(names))
	for i, name := range names {
		spec, err := sac.Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = spec
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := sac.Run(cfg, spec, sac.WithFidelity(f)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkEstimate measures the closed-form rung: the full 16-workload SAC
// org-decision sweep per iteration. This is the numerator of the speedup
// recorded in BENCH_pr8.json (denominator: BenchmarkExactDecisionSweep).
func BenchmarkEstimate(b *testing.B) { decisionSweep(b, sac.FidelityEstimate) }

// BenchmarkExactDecisionSweep is the cycle-exact baseline for the same
// 16-workload decision sweep. Minutes per iteration — run with -benchtime 1x;
// it is deliberately excluded from benchsmoke.
func BenchmarkExactDecisionSweep(b *testing.B) { decisionSweep(b, sac.FidelityExact) }

// BenchmarkSampledRun measures the interval-simulation rung on NN, a
// workload long enough for truncation to bind: cycle-simulate each kernel's
// opening interval, fast-forward the steady state. Short workloads (e.g.
// SN) fit entirely inside the interval and see no speedup by design.
func BenchmarkSampledRun(b *testing.B) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	spec, err := sac.Benchmark("NN")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sac.Run(cfg, spec, sac.WithFidelity(sac.FidelitySampled)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactRun is the cycle-exact counterpart of BenchmarkSampledRun
// (same workload, same serial worker setting), so the sampled rung's
// per-workload speedup is an apples-to-apples ratio. Seconds per iteration;
// excluded from benchsmoke.
func BenchmarkExactRun(b *testing.B) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	spec, err := sac.Benchmark("NN")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sac.Run(cfg, spec); err != nil {
			b.Fatal(err)
		}
	}
}
