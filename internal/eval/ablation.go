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

// ablate runs SAC under each variant across the selected benchmarks and
// scores it against the per-benchmark oracle. One run-set carries, per
// benchmark, the shared pure-organization baselines and then each variant's
// SAC cell.
func (r *Runner) ablate(axis string, variants []variant) (*AblationResult, error) {
	specs, err := r.specsCovered(trioOrgs, "Cycles", "MemOps")
	if err != nil {
		return nil, err
	}
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec},
			RunRequest{Cfg: r.Base.WithOrg(llc.SMSide), Spec: spec})
		for _, v := range variants {
			reqs = append(reqs, RunRequest{Cfg: v.apply(r.Base).WithOrg(llc.SAC), Spec: spec})
		}
	}
	runs, err := r.RunAll(reqs)
	if err != nil {
		return nil, err
	}
	per := 2 + len(variants) // cells per benchmark
	res := &AblationResult{Axis: axis}
	for vi, v := range variants {
		var vsMem, vsOracle []float64
		for k := 0; k < len(runs); k += per {
			mem, sm, sac := runs[k], runs[k+1], runs[k+2+vi]
			oracle := mem
			if sm.IPC() > mem.IPC() {
				oracle = sm
			}
			vsMem = append(vsMem, stats.Speedup(sac, mem))
			vsOracle = append(vsOracle, sac.IPC()/oracle.IPC())
		}
		res.Points = append(res.Points, AblationPoint{
			Name:       v.label,
			Baseline:   v.baseline,
			HMSpeedup:  stats.HarmonicMeanSpeedup(vsMem),
			OracleFrac: stats.HarmonicMeanSpeedup(vsOracle),
		})
	}
	return res, nil
}

// AblateTheta sweeps the EAB comparison threshold θ (§3.5; the paper uses
// 5% and omits its sensitivity analysis for space).
func (r *Runner) AblateTheta() (*AblationResult, error) {
	var vs []variant
	for _, th := range []float64{0.001, 0.05, 0.20} {
		vs = append(vs, variant{
			label:    fmt.Sprintf("theta=%.1f%%", th*100),
			baseline: th == 0.05,
			mutate:   func(c *gpu.Config) { c.SACOpts.Theta = th },
		})
	}
	return r.ablate("theta", vs)
}

// AblateWindow sweeps the profiling-window length (§3.2) at a third, one and
// four times the configured window. The baseline leaves the window as
// configured, so its SAC cells are the plain SAC runs of every other
// experiment.
func (r *Runner) AblateWindow() (*AblationResult, error) {
	base := r.Base.SACOpts.WindowCycles
	if base <= 0 {
		base = 2000
	}
	var vs []variant
	for _, f := range []int64{1, 3, 12} {
		w := base * f / 3
		v := variant{label: fmt.Sprintf("window=%d", w), baseline: f == 3}
		if !v.baseline {
			v.mutate = func(c *gpu.Config) { c.SACOpts.WindowCycles = w }
		}
		vs = append(vs, v)
	}
	return r.ablate("profiling-window", vs)
}

// AblateLSU removes the LLC-slice-uniformity term from the EAB model.
func (r *Runner) AblateLSU() (*AblationResult, error) {
	return r.ablate("lsu-term", []variant{
		{label: "with-LSU", baseline: true},
		{label: "no-LSU", mutate: func(c *gpu.Config) { c.SACOpts.DisableLSU = true }},
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

// AblateReprofile evaluates the periodic re-profiling the paper explored
// and dismissed (§3.2): re-opening the profiling window every N cycles
// (which requires reverting to memory-side for the window's duration).
func (r *Runner) AblateReprofile() (*AblationResult, error) {
	vs := []variant{{label: "once-per-kernel", baseline: true}}
	for _, period := range []int64{50_000, 200_000} {
		vs = append(vs, variant{
			label:  fmt.Sprintf("every-%dk", period/1000),
			mutate: func(c *gpu.Config) { c.SACOpts.ReprofileEvery = period },
		})
	}
	return r.ablate("periodic-reprofiling", vs)
}
