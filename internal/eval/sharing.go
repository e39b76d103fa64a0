package eval

import (
	"fmt"
	"io"

	"repro/internal/llc"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table4Result compares the measured workload characterization against the
// paper's Table 4 (values reported at full scale: measured × Scale).
type Table4Result struct {
	Rows []Table4Cmp
}

// Table4Cmp is one benchmark's measured-vs-paper row.
type Table4Cmp struct {
	Name    string
	Suite   string
	Group   string // "SP" or "MP", the paper's ground-truth grouping
	CTAs    int
	Kernels int // kernel invocations
	Paper   workload.Table4Row
	// Measured, in full-scale MB.
	FootprintMB, TrueMB, FalseMB float64
}

// Table4 measures every selected benchmark's streams.
func (r *Runner) Table4() (*Table4Result, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	paper := map[string]workload.Table4Row{}
	for _, row := range workload.Table4() {
		paper[row.Name] = row
	}
	an, err := profile.New(r.Base.Machine(), []int64{1 << 62}, 0) // one giant window
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, spec := range specs {
		p, err := an.Analyze(spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table4Cmp{
			Name:        spec.Name,
			Suite:       spec.Suite,
			Group:       group(spec),
			CTAs:        spec.CTAs,
			Kernels:     spec.KernelCount(),
			Paper:       paper[spec.Name],
			FootprintMB: p.FootprintMB,
			TrueMB:      p.TrueSharedMB,
			FalseMB:     p.FalseSharedMB,
		})
	}
	return res, nil
}

// Print writes measured vs paper columns.
func (t *Table4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Table 4: workload characterization (measured at scale x Scale vs paper) ==\n")
	fmt.Fprintf(w, "%-10s%-10s%6s%8s%8s %11s%11s %11s%11s %11s%11s\n",
		"bench", "suite", "group", "CTAs", "kernels", "fp(meas)", "fp(paper)", "true(meas)", "true(ppr)", "false(meas)", "false(ppr)")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-10s%-10s%6s%8d%8d %11.1f%11.1f %11.1f%11.1f %11.1f%11.1f\n",
			row.Name, row.Suite, row.Group, row.CTAs, row.Kernels,
			row.FootprintMB, row.Paper.FootprintMB,
			row.TrueMB, row.Paper.TrueMB,
			row.FalseMB, row.Paper.FalseMB)
	}
}

// Fig11Result reproduces Figure 11: working-set size per time window under
// the SM-side organization, split by sharing class, against the system LLC
// capacity line.
type Fig11Result struct {
	Rows  []profile.Result
	LLCMB float64 // total system LLC capacity at full scale
}

// Fig11 analyzes the selected benchmarks over the paper's window sizes.
func (r *Runner) Fig11() (*Fig11Result, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	an, err := profile.New(r.Base.Machine(), []int64{1000, 10000, 100000}, 32)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{
		LLCMB: float64(r.Base.LLCBytesPerChip) * float64(r.Base.Chips) *
			float64(r.Base.WorkloadScale) / (1 << 20),
	}
	for _, spec := range specs {
		p, err := an.Analyze(spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, p)
	}
	return res, nil
}

// Print writes the per-window class breakdown.
func (f *Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig 11: working-set size per window, MB at full scale (system LLC = %.0f MB) ==\n", f.LLCMB)
	fmt.Fprintf(w, "%-10s%10s %10s%10s%10s%10s%12s\n",
		"bench", "window", "true", "false", "non", "total", "replicated")
	for _, row := range f.Rows {
		for _, win := range row.Windows {
			fmt.Fprintf(w, "%-10s%9dc %10.2f%10.2f%10.2f%10.2f%12.2f\n",
				row.Benchmark, win.WindowCycles,
				win.TrueSharedMB, win.FalseSharedMB, win.NonSharedMB,
				win.TotalMB(), win.ReplicatedMB(4))
		}
	}
}

// Fig12Result reproduces Figure 12: BFS's per-kernel speedup of the SM-side
// LLC and SAC relative to memory-side, showing SAC choosing per kernel.
type Fig12Result struct {
	KernelNames []string
	MemCycles   []int64
	SMCycles    []int64
	SACCycles   []int64
	SACOrg      []string // organization SAC chose for each kernel
}

// Fig12 runs BFS under the three relevant organizations.
func (r *Runner) Fig12() (*Fig12Result, error) {
	spec, err := workload.ByName("BFS")
	if err != nil {
		return nil, err
	}
	r.Prefetch([]RunRequest{
		{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec},
		{Cfg: r.Base.WithOrg(llc.SMSide), Spec: spec},
		{Cfg: r.Base.WithOrg(llc.SAC), Spec: spec},
	})
	mem, err := r.runOrg(llc.MemorySide, spec)
	if err != nil {
		return nil, err
	}
	sm, err := r.runOrg(llc.SMSide, spec)
	if err != nil {
		return nil, err
	}
	sac, err := r.runOrg(llc.SAC, spec)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for i := range mem.Kernels {
		res.KernelNames = append(res.KernelNames, mem.Kernels[i].Name)
		res.MemCycles = append(res.MemCycles, mem.Kernels[i].Cycles)
		res.SMCycles = append(res.SMCycles, sm.Kernels[i].Cycles)
		res.SACCycles = append(res.SACCycles, sac.Kernels[i].Cycles)
		res.SACOrg = append(res.SACOrg, sac.Kernels[i].Org)
	}
	return res, nil
}

// Speedups returns per-kernel speedups (SM-side, SAC) vs memory-side.
func (f *Fig12Result) Speedups() (sm, sac []float64) {
	for i := range f.MemCycles {
		sm = append(sm, float64(f.MemCycles[i])/float64(f.SMCycles[i]))
		sac = append(sac, float64(f.MemCycles[i])/float64(f.SACCycles[i]))
	}
	return sm, sac
}

// Print writes the per-kernel time series.
func (f *Fig12Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig 12: BFS time-varying behaviour (per-kernel speedup vs memory-side) ==\n")
	fmt.Fprintf(w, "%-4s%-10s%12s%12s%14s\n", "#", "kernel", "SM-side", "SAC", "SAC-choice")
	sm, sac := f.Speedups()
	for i := range f.KernelNames {
		fmt.Fprintf(w, "%-4d%-10s%12.3f%12.3f%14s\n",
			i, f.KernelNames[i], sm[i], sac[i], f.SACOrg[i])
	}
}

// speedupOf is a small helper shared by the sweep experiments.
func speedupOf(a, b *stats.Run) float64 { return stats.Speedup(a, b) }
