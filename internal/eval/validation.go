package eval

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

// EABValRow records, for one benchmark, what the EAB model predicted from
// its profiling window against what actually happened.
type EABValRow struct {
	Benchmark string
	// Model outputs at the first kernel's decision point.
	PredictedMemEAB float64 // bytes/cycle
	PredictedSMEAB  float64
	PredictedPickSM bool
	// Ground truth from full runs of the pure organizations.
	MeasuredMemBW float64 // effective LLC bandwidth, bytes/cycle
	MeasuredSMBW  float64
	ActualBestSM  bool // SM-side had the higher IPC
	SpeedupSM     float64
}

// Correct reports whether the model picked the actually-better organization.
func (r EABValRow) Correct() bool { return r.PredictedPickSM == r.ActualBestSM }

// EABValidation is the model-accuracy experiment: the paper's §5.2 argument
// is that effective LLC bandwidth predicts performance; this experiment
// checks (1) the decision accuracy of the model, and (2) the correlation
// between the model's predicted bandwidth ratio and both the measured
// bandwidth ratio and the measured speedup.
type EABValidation struct {
	Rows []EABValRow
	// Pearson correlations over benchmarks.
	CorrPredictedVsMeasuredBW float64 // predicted EAB ratio vs measured BW ratio
	CorrMeasuredBWVsSpeedup   float64 // measured BW ratio vs measured speedup
	// CorrLatencyVsSpeedup checks the paper's footnote 2: the effective
	// memory latency also correlates with performance, but less strongly
	// than the effective bandwidth (latency is only exposed when bandwidth
	// is insufficient).
	CorrLatencyVsSpeedup float64
	Accuracy             float64 // fraction of correct decisions
}

// ValidateEAB runs the experiment over the selected benchmarks.
func (r *Runner) ValidateEAB() (*EABValidation, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	res := &EABValidation{}
	var predRatio, measRatio, speedups, latRatio []float64
	correct := 0
	// The pure-organization ground-truth runs go through the job engine; the
	// SAC runs need a System handle (to read the model's decision), so they
	// bypass it but still take the Runner's execution slots.
	var reqs []RunRequest
	for _, spec := range specs {
		reqs = append(reqs,
			RunRequest{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec},
			RunRequest{Cfg: r.Base.WithOrg(llc.SMSide), Spec: spec})
	}
	r.Prefetch(reqs)
	sacSys := make([]*gpu.System, len(specs))
	sacErr := make([]error, len(specs))
	r.table() // sizes the slots
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec workload.Spec) {
			defer wg.Done()
			r.slots <- struct{}{}
			defer func() { <-r.slots }()
			sys, err := gpu.New(r.Base.WithOrg(llc.SAC), spec)
			if err == nil {
				_, err = sys.Run()
			}
			sacSys[i], sacErr[i] = sys, err
		}(i, spec)
	}
	wg.Wait()
	for i, spec := range specs {
		mem, err := r.runOrg(llc.MemorySide, spec)
		if err != nil {
			return nil, err
		}
		sm, err := r.runOrg(llc.SMSide, spec)
		if err != nil {
			return nil, err
		}
		if sacErr[i] != nil {
			return nil, fmt.Errorf("eval: %s under %s: %w", spec.Name, llc.SAC, sacErr[i])
		}
		d := sacSys[i].SAC().LastDecision()
		row := EABValRow{
			Benchmark:       spec.Name,
			PredictedMemEAB: d.MemSide.Total,
			PredictedSMEAB:  d.SMSide.Total,
			PredictedPickSM: d.PickSM,
			MeasuredMemBW:   mem.EffectiveLLCBandwidth(),
			MeasuredSMBW:    sm.EffectiveLLCBandwidth(),
			ActualBestSM:    sm.IPC() > mem.IPC(),
			SpeedupSM:       sm.IPC() / mem.IPC(),
		}
		res.Rows = append(res.Rows, row)
		if row.Correct() {
			correct++
		}
		if row.PredictedMemEAB > 0 && row.MeasuredMemBW > 0 {
			predRatio = append(predRatio, row.PredictedSMEAB/row.PredictedMemEAB)
			measRatio = append(measRatio, row.MeasuredSMBW/row.MeasuredMemBW)
			speedups = append(speedups, row.SpeedupSM)
			if l := sm.AvgReadLatency(); l > 0 {
				latRatio = append(latRatio, mem.AvgReadLatency()/l)
			}
		}
	}
	if len(res.Rows) > 0 {
		res.Accuracy = float64(correct) / float64(len(res.Rows))
	}
	res.CorrPredictedVsMeasuredBW = pearson(predRatio, measRatio)
	res.CorrMeasuredBWVsSpeedup = pearson(measRatio, speedups)
	res.CorrLatencyVsSpeedup = pearson(latRatio, speedups)
	return res, nil
}

// pearson computes the sample correlation coefficient (0 for degenerate
// inputs).
func pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Print writes the validation table.
func (v *EABValidation) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== EAB model validation (predicted vs measured) ==\n")
	fmt.Fprintf(w, "%-10s%12s%12s%8s %12s%12s%8s%8s\n",
		"bench", "EAB(mem)", "EAB(SM)", "pick", "BW(mem)", "BW(SM)", "best", "ok")
	for _, r := range v.Rows {
		pick, best := "mem", "mem"
		if r.PredictedPickSM {
			pick = "SM"
		}
		if r.ActualBestSM {
			best = "SM"
		}
		ok := "yes"
		if !r.Correct() {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-10s%12.0f%12.0f%8s %12.1f%12.1f%8s%8s\n",
			r.Benchmark, r.PredictedMemEAB, r.PredictedSMEAB, pick,
			r.MeasuredMemBW, r.MeasuredSMBW, best, ok)
	}
	fmt.Fprintf(w, "decision accuracy: %.0f%%   corr(predicted EAB ratio, measured BW ratio): %.2f   corr(BW ratio, speedup): %.2f\n",
		100*v.Accuracy, v.CorrPredictedVsMeasuredBW, v.CorrMeasuredBWVsSpeedup)
	fmt.Fprintf(w, "corr(latency ratio, speedup): %.2f   (paper footnote 2: correlates, but weaker than bandwidth)\n",
		v.CorrLatencyVsSpeedup)
}
