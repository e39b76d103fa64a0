package eval

import (
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig13Point is one (benchmark, input factor) cell of the input-set sweep.
type Fig13Point struct {
	Benchmark string
	Factor    float64 // input scaling (0.25 = ÷4); for the fixed-input
	// benchmarks (RN/AN/SN/BT) the LLC capacity is scaled by 1/Factor
	// instead, as in the paper.
	LLCScaled bool
	SMSide    float64 // speedup vs memory-side at this input
	SAC       float64
}

// Fig13Result reproduces Figure 13: input-set sensitivity of the SM-side
// LLC and SAC.
type Fig13Result struct {
	SPFactors []float64
	MPFactors []float64
	Points    []Fig13Point
}

// fixedInputBenchmarks cannot change input size; the paper scales LLC
// capacity for them instead.
var fixedInputBenchmarks = map[string]bool{"RN": true, "AN": true, "SN": true, "BT": true}

// Fig13 sweeps input sizes. The paper sweeps ×8…÷4 for SP and ×4…÷32 for
// MP; the default factors cover the same crossovers at single-core-friendly
// cost (large factors multiply simulation time).
func (r *Runner) Fig13(spFactors, mpFactors []float64) (*Fig13Result, error) {
	if len(spFactors) == 0 {
		// x8 covers the paper's largest-input revert; the small end shows
		// SM-side growing as replication gets easier.
		spFactors = []float64{8, 2, 1, 0.25}
	}
	if len(mpFactors) == 0 {
		mpFactors = []float64{1, 0.25, 0.0625, 0.03125}
	}
	specs, err := r.specsCovered(trioOrgs, "Cycles", "MemOps")
	if err != nil {
		return nil, err
	}
	// One run-set: each point's memory-side, SM-side and SAC cells, in
	// point order.
	res := &Fig13Result{SPFactors: spFactors, MPFactors: mpFactors}
	var reqs []RunRequest
	for _, spec := range specs {
		factors := mpFactors
		if spec.SMSide {
			factors = spFactors
		}
		for _, f := range factors {
			cfg, sw, llcScaled := r.fig13Case(spec, f)
			res.Points = append(res.Points, Fig13Point{Benchmark: spec.Name, Factor: f, LLCScaled: llcScaled})
			reqs = append(reqs, trio(cfg, sw)...)
		}
	}
	runs, err := r.RunAll(reqs)
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		mem, sm, sac := runs[3*i], runs[3*i+1], runs[3*i+2]
		res.Points[i].SMSide = stats.Speedup(sm, mem)
		res.Points[i].SAC = stats.Speedup(sac, mem)
	}
	return res, nil
}

// trioOrgs are the three organizations every sensitivity sweep compares.
var trioOrgs = []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC}

// trio is one configuration's cells under trioOrgs, in that order.
func trio(cfg gpu.Config, spec workload.Spec) (reqs []RunRequest) {
	for _, org := range trioOrgs {
		reqs = append(reqs, RunRequest{Cfg: cfg.WithOrg(org), Spec: spec})
	}
	return reqs
}

// fig13Case derives the configuration and workload for one sweep point: the
// fixed-input benchmarks scale LLC capacity by 1/factor, everything else
// scales the input itself.
func (r *Runner) fig13Case(spec workload.Spec, factor float64) (gpu.Config, workload.Spec, bool) {
	cfg := r.Base
	if fixedInputBenchmarks[spec.Name] && factor != 1 {
		// Scale the LLC instead of the input: input ×k ≈ LLC ÷k.
		cap := int(float64(cfg.LLCBytesPerChip) / factor)
		cfg.LLCBytesPerChip = roundCap(cap, cfg)
		return cfg, spec, true
	}
	return cfg, spec.ScaleInput(factor), false
}

// roundCap rounds an LLC capacity so slices still divide into whole ways.
func roundCap(bytes int, cfg gpu.Config) int {
	quant := cfg.Geom.LineBytes * cfg.SlicesPerChip * cfg.LLCWays
	n := bytes / quant
	if n < 1 {
		n = 1
	}
	return n * quant
}

// Print writes the sweep as paper-style series.
func (f *Fig13Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig 13: input-set sensitivity (speedup vs memory-side) ==\n")
	fmt.Fprintf(w, "%-12s%10s%12s%12s%10s\n", "benchmark", "input", "SM-side", "SAC", "axis")
	for _, p := range f.Points {
		axis := "input"
		if p.LLCScaled {
			axis = "LLC/x"
		}
		fmt.Fprintf(w, "%-12s%9.4gx%12.3f%12.3f%10s\n",
			p.Benchmark, p.Factor, p.SMSide, p.SAC, axis)
	}
}

// Axis identifies one Figure 14 sensitivity dimension.
type Axis string

// The Figure 14 axes.
const (
	AxisInterChipBW Axis = "inter-chip-bw"
	AxisLLCCapacity Axis = "llc-capacity"
	AxisMemory      Axis = "memory-interface"
	AxisCoherence   Axis = "coherence"
	AxisGPUCount    Axis = "gpu-count"
	AxisSectored    Axis = "sectored"
	AxisPageSize    Axis = "page-size"
)

// Fig14Point is one configuration point of the design-space sweep: the
// harmonic-mean speedup of the SM-side LLC and SAC over the memory-side LLC
// at that configuration.
type Fig14Point struct {
	Axis     Axis
	Label    string
	Baseline bool // marks the paper's default configuration (the asterisk)
	SMSide   float64
	SAC      float64
}

// Fig14Result reproduces Figure 14.
type Fig14Result struct{ Points []Fig14Point }

// Fig14 sweeps the paper's design-space axes. Axes may be restricted; nil
// sweeps all seven.
func (r *Runner) Fig14(axes []Axis) (*Fig14Result, error) {
	if len(axes) == 0 {
		axes = []Axis{AxisInterChipBW, AxisLLCCapacity, AxisMemory,
			AxisCoherence, AxisGPUCount, AxisSectored, AxisPageSize}
	}
	specs, err := r.specsCovered(trioOrgs, "Cycles", "MemOps")
	if err != nil {
		return nil, err
	}
	// One run-set: every axis's variants × benchmarks × the trio.
	res := &Fig14Result{}
	var reqs []RunRequest
	for _, axis := range axes {
		vs, err := axisVariants(axis)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			res.Points = append(res.Points, Fig14Point{Axis: axis, Label: v.label, Baseline: v.baseline})
			cfg := v.apply(r.Base)
			for _, spec := range specs {
				reqs = append(reqs, trio(cfg, spec)...)
			}
		}
	}
	runs, err := r.RunAll(reqs)
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		var smSp, sacSp []float64
		for k := 3 * len(specs) * i; k < 3*len(specs)*(i+1); k += 3 {
			smSp = append(smSp, stats.Speedup(runs[k+1], runs[k]))
			sacSp = append(sacSp, stats.Speedup(runs[k+2], runs[k]))
		}
		res.Points[i].SMSide = stats.HarmonicMeanSpeedup(smSp)
		res.Points[i].SAC = stats.HarmonicMeanSpeedup(sacSp)
	}
	return res, nil
}

// variant is one configuration point of a sweep or an ablation: its label,
// whether it is the paper's default (printed with an asterisk), and how it
// changes the base configuration (nil leaves it as is).
type variant struct {
	label    string
	baseline bool
	mutate   func(*gpu.Config)
}

// apply returns base under v.
func (v variant) apply(base gpu.Config) gpu.Config {
	if v.mutate != nil {
		v.mutate(&base)
	}
	return base
}

// axisVariants lists one Figure 14 axis's configuration points.
func axisVariants(axis Axis) ([]variant, error) {
	var variants []variant
	switch axis {
	case AxisInterChipBW:
		// Paper: 48 GB/s (PCIe) … 768 GB/s unidirectional (MCM), default 96.
		for _, f := range []float64{0.5, 1, 2, 4, 8} {
			variants = append(variants, variant{
				label:    fmt.Sprintf("%.0fGB/s", 96*f),
				baseline: f == 1,
				mutate:   func(c *gpu.Config) { c.RingLinkBW *= f },
			})
		}
	case AxisLLCCapacity:
		for _, f := range []float64{0.5, 1, 2} {
			variants = append(variants, variant{
				label:    fmt.Sprintf("%.0fMB/chip", 4*f),
				baseline: f == 1,
				mutate: func(c *gpu.Config) {
					c.LLCBytesPerChip = roundCap(int(float64(c.LLCBytesPerChip)*f), *c)
				},
			})
		}
	case AxisMemory:
		for _, iface := range []dram.Interface{dram.GDDR5, dram.GDDR6, dram.HBM2} {
			variants = append(variants, variant{
				label:    iface.Name,
				baseline: iface.Name == dram.GDDR6.Name,
				mutate: func(c *gpu.Config) {
					c.ChannelBW *= iface.TotalGBs / dram.GDDR6.TotalGBs
					c.DRAMLatency = iface.LatencyCyc
				},
			})
		}
	case AxisCoherence:
		variants = []variant{
			{label: "software", baseline: true, mutate: func(c *gpu.Config) { c.Coherence = coherence.Software }},
			{label: "hardware", mutate: func(c *gpu.Config) { c.Coherence = coherence.Hardware }},
		}
	case AxisGPUCount:
		variants = []variant{
			{label: "4 GPUs", baseline: true},
			{label: "2 GPUs", mutate: func(c *gpu.Config) {
				// Halving the GPU count keeps total inter-chip bandwidth:
				// per-link bandwidth doubles (paper §5.6).
				c.Chips = 2
				c.RingLinkBW *= 2
			}},
		}
	case AxisSectored:
		variants = []variant{
			{label: "conventional", baseline: true},
			{label: "sectored", mutate: func(c *gpu.Config) { c.Sectored = true }},
		}
	case AxisPageSize:
		for _, pb := range []int{2048, 4096, 16384} {
			variants = append(variants, variant{
				label:    fmt.Sprintf("%dKB-page", pb/1024),
				baseline: pb == 4096,
				mutate:   func(c *gpu.Config) { c.Geom.PageBytes = pb },
			})
		}
	default:
		return nil, fmt.Errorf("eval: unknown axis %q", axis)
	}
	return variants, nil
}

// Print writes the sweep table; the baseline configuration carries the
// paper's asterisk.
func (f *Fig14Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig 14: design-space sensitivity (HM speedup vs memory-side) ==\n")
	fmt.Fprintf(w, "%-18s%-16s%12s%12s\n", "axis", "config", "SM-side", "SAC")
	for _, p := range f.Points {
		label := p.Label
		if p.Baseline {
			label += "*"
		}
		fmt.Fprintf(w, "%-18s%-16s%12.3f%12.3f\n", p.Axis, label, p.SMSide, p.SAC)
	}
}
