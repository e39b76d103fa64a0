package eval

import (
	"fmt"
	"io"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
)

// AblationPoint is one variant of a SAC design choice: the harmonic-mean
// speedup of SAC over memory-side under that variant, and how close SAC
// comes to a post-hoc oracle that picks the best pure organization per
// benchmark.
type AblationPoint struct {
	Name       string
	Baseline   bool
	HMSpeedup  float64 // SAC vs memory-side
	OracleFrac float64 // HM of SAC IPC / oracle IPC (1 = perfect choices)
}

// AblationResult collects one ablation axis.
type AblationResult struct {
	Axis   string
	Points []AblationPoint
}

// ablate runs SAC with a mutated configuration across the selected
// benchmarks and scores it against the per-benchmark oracle.
func (r *Runner) ablate(axis string, variants []struct {
	name     string
	baseline bool
	mutate   func(*gpu.Config)
}) (*AblationResult, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	// Submit every variant's SAC runs plus the shared pure-organization
	// baselines to the engine before scoring any variant.
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec},
			RunRequest{Cfg: r.Base.WithOrg(llc.SMSide), Spec: spec})
		for _, v := range variants {
			cfg := r.Base
			v.mutate(&cfg)
			reqs = append(reqs, RunRequest{Cfg: cfg.WithOrg(llc.SAC), Spec: spec})
		}
	}
	r.Prefetch(reqs)
	res := &AblationResult{Axis: axis}
	for _, v := range variants {
		cfg := r.Base
		v.mutate(&cfg)
		var vsMem, vsOracle []float64
		for _, spec := range specs {
			mem, err := r.run(r.Base.WithOrg(llc.MemorySide), spec)
			if err != nil {
				return nil, err
			}
			sm, err := r.run(r.Base.WithOrg(llc.SMSide), spec)
			if err != nil {
				return nil, err
			}
			sac, err := r.run(cfg.WithOrg(llc.SAC), spec)
			if err != nil {
				return nil, err
			}
			oracle := mem
			if sm.IPC() > mem.IPC() {
				oracle = sm
			}
			vsMem = append(vsMem, speedupOf(sac, mem))
			vsOracle = append(vsOracle, sac.IPC()/oracle.IPC())
		}
		res.Points = append(res.Points, AblationPoint{
			Name:       v.name,
			Baseline:   v.baseline,
			HMSpeedup:  stats.HarmonicMeanSpeedup(vsMem),
			OracleFrac: stats.HarmonicMeanSpeedup(vsOracle),
		})
	}
	return res, nil
}

type ablationVariant = struct {
	name     string
	baseline bool
	mutate   func(*gpu.Config)
}

// AblateTheta sweeps the EAB comparison threshold θ (§3.5; the paper uses
// 5% and omits its sensitivity analysis for space).
func (r *Runner) AblateTheta() (*AblationResult, error) {
	var vs []ablationVariant
	for _, th := range []float64{0.001, 0.05, 0.20} {
		th := th
		vs = append(vs, ablationVariant{
			name:     fmt.Sprintf("theta=%.1f%%", th*100),
			baseline: th == 0.05,
			mutate:   func(c *gpu.Config) { c.SACOpts.Theta = th },
		})
	}
	return r.ablate("theta", vs)
}

// AblateWindow sweeps the profiling-window length (§3.2).
func (r *Runner) AblateWindow() (*AblationResult, error) {
	base := r.Base.SACOpts.WindowCycles
	if base <= 0 {
		base = 2000
	}
	var vs []ablationVariant
	for _, f := range []int64{1, 3, 12} {
		w := base / 3 * f
		vs = append(vs, ablationVariant{
			name:     fmt.Sprintf("window=%d", w),
			baseline: f == 3,
			mutate:   func(c *gpu.Config) { c.SACOpts.WindowCycles = w },
		})
	}
	return r.ablate("profiling-window", vs)
}

// AblateLSU removes the LLC-slice-uniformity term from the EAB model.
func (r *Runner) AblateLSU() (*AblationResult, error) {
	return r.ablate("lsu-term", []ablationVariant{
		{name: "with-LSU", baseline: true, mutate: func(*gpu.Config) {}},
		{name: "no-LSU", mutate: func(c *gpu.Config) { c.SACOpts.DisableLSU = true }},
	})
}

// Print writes one ablation table.
func (a *AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Ablation: %s ==\n", a.Axis)
	fmt.Fprintf(w, "%-18s%14s%16s\n", "variant", "SAC/mem (HM)", "SAC/oracle (HM)")
	for _, p := range a.Points {
		name := p.Name
		if p.Baseline {
			name += "*"
		}
		fmt.Fprintf(w, "%-18s%14.3f%16.3f\n", name, p.HMSpeedup, p.OracleFrac)
	}
}

// AblateDecisionCache compares the paper's per-invocation profiling against
// the kernel-decision-cache extension (Options.ReuseKernelDecisions), which
// re-uses a kernel's EAB decision on repeat invocations.
func (r *Runner) AblateDecisionCache() (*AblationResult, error) {
	return r.ablate("kernel-decision-cache", []ablationVariant{
		{name: "re-profile", baseline: true, mutate: func(*gpu.Config) {}},
		{name: "cached", mutate: func(c *gpu.Config) { c.SACOpts.ReuseKernelDecisions = true }},
	})
}

// AblateReprofile evaluates the periodic re-profiling the paper explored
// and dismissed (§3.2): re-opening the profiling window every N cycles
// (which requires reverting to memory-side for the window's duration).
func (r *Runner) AblateReprofile() (*AblationResult, error) {
	var vs []ablationVariant
	vs = append(vs, ablationVariant{name: "once-per-kernel", baseline: true, mutate: func(*gpu.Config) {}})
	for _, period := range []int64{50_000, 200_000} {
		period := period
		vs = append(vs, ablationVariant{
			name:   fmt.Sprintf("every-%dk", period/1000),
			mutate: func(c *gpu.Config) { c.SACOpts.ReprofileEvery = period },
		})
	}
	return r.ablate("periodic-reprofiling", vs)
}
