package eval

import (
	"fmt"
	"io"

	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchRuns bundles one benchmark's runs under every organization.
type BenchRuns struct {
	Spec  workload.Spec
	ByOrg map[llc.Org]*stats.Run
}

// Speedup returns the IPC of org relative to the memory-side baseline.
func (b BenchRuns) Speedup(org llc.Org) float64 {
	return stats.Speedup(b.ByOrg[org], b.ByOrg[llc.MemorySide])
}

// FastSet is a representative benchmark subset (3 SP + 3 MP spanning the
// strong and atypical cases of each group) used by the most expensive sweep
// experiments to keep serial wall time manageable. Pass
// Benchmarks = workload.Names() for full-fidelity sweeps.
func FastSet() []string { return []string{"RN", "SN", "BS", "GEMM", "BP", "DWT"} }

// specs resolves the benchmark selection.
func (r *Runner) specs() ([]workload.Spec, error) {
	names := r.Benchmarks
	if len(names) == 0 {
		names = workload.Names()
	}
	out := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// orderedOrgs is the paper's comparison order.
func orderedOrgs() []llc.Org { return llc.Orgs() }

// printHeader emits a table header row.
func printHeader(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-14s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}

// matrix runs every selected benchmark under every organization. The whole
// benchmark × organization grid is submitted to the engine up front, so
// Fig 1/8/9/10 and Headline share one fan-out.
func (r *Runner) matrix() ([]BenchRuns, error) {
	specs, err := r.specs()
	if err != nil {
		return nil, err
	}
	orgs := orderedOrgs()
	reqs := make([]RunRequest, 0, len(specs)*len(orgs))
	for _, spec := range specs {
		for _, org := range orgs {
			reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
		}
	}
	runs, err := r.RunAll(reqs)
	if err != nil {
		return nil, err
	}
	out := make([]BenchRuns, 0, len(specs))
	for i, spec := range specs {
		br := BenchRuns{Spec: spec, ByOrg: make(map[llc.Org]*stats.Run)}
		for j, org := range orgs {
			br.ByOrg[org] = runs[i*len(orgs)+j]
		}
		out = append(out, br)
	}
	return out, nil
}

// GroupAgg is a per-group aggregate over one organization.
type GroupAgg struct {
	HMSpeedup float64 // harmonic-mean speedup vs memory-side
	MissRate  float64 // mean LLC miss rate
	EffBW     float64 // mean effective LLC bandwidth, normalized to memory-side
}

// Fig1Result reproduces Figure 1: performance, LLC miss rate and effective
// LLC bandwidth for the SP and MP groups under all five organizations.
type Fig1Result struct {
	Groups map[string]map[llc.Org]GroupAgg // "SP", "MP", "ALL"
	Runs   []BenchRuns
}

// Fig1 runs the Figure 1 experiment.
func (r *Runner) Fig1() (*Fig1Result, error) {
	runs, err := r.matrix()
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Groups: map[string]map[llc.Org]GroupAgg{}, Runs: runs}
	groups := map[string][]BenchRuns{}
	for _, br := range runs {
		g := "MP"
		if br.Spec.SMSide {
			g = "SP"
		}
		groups[g] = append(groups[g], br)
		groups["ALL"] = append(groups["ALL"], br)
	}
	for g, members := range groups {
		res.Groups[g] = map[llc.Org]GroupAgg{}
		for _, org := range orderedOrgs() {
			var sp []float64
			var miss, bw, bwBase float64
			for _, br := range members {
				sp = append(sp, br.Speedup(org))
				miss += br.ByOrg[org].LLCMissRate()
				bw += br.ByOrg[org].EffectiveLLCBandwidth()
				bwBase += br.ByOrg[llc.MemorySide].EffectiveLLCBandwidth()
			}
			if bwBase == 0 {
				// The estimate rung fills no response bytes.
				bwBase = 1
			}
			res.Groups[g][org] = GroupAgg{
				HMSpeedup: stats.HarmonicMeanSpeedup(sp),
				MissRate:  miss / float64(len(members)),
				EffBW:     bw / bwBase,
			}
		}
	}
	return res, nil
}

// Print writes the three Figure 1 panels.
func (f *Fig1Result) Print(w io.Writer) {
	for _, panel := range []struct {
		title string
		get   func(GroupAgg) float64
	}{
		{"Fig 1a: performance (HM speedup vs memory-side)", func(a GroupAgg) float64 { return a.HMSpeedup }},
		{"Fig 1b: LLC miss rate", func(a GroupAgg) float64 { return a.MissRate }},
		{"Fig 1c: effective LLC bandwidth (normalized to memory-side)", func(a GroupAgg) float64 { return a.EffBW }},
	} {
		printHeader(w, panel.title, orgNames())
		for _, g := range []string{"SP", "MP", "ALL"} {
			fmt.Fprintf(w, "%-14s", g)
			for _, org := range orderedOrgs() {
				fmt.Fprintf(w, "%12.3f", panel.get(f.Groups[g][org]))
			}
			fmt.Fprintln(w)
		}
	}
}

func orgNames() []string {
	var out []string
	for _, o := range orderedOrgs() {
		out = append(out, o.String())
	}
	return out
}

// Fig8Result reproduces Figure 8: per-benchmark speedup for every
// organization relative to the memory-side LLC, with group harmonic means.
type Fig8Result struct {
	Runs []BenchRuns
	HM   map[string]map[llc.Org]float64 // group -> org -> HM speedup
}

// Fig8 runs the Figure 8 experiment.
func (r *Runner) Fig8() (*Fig8Result, error) {
	f1, err := r.Fig1() // same runs; reuse aggregation
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Runs: f1.Runs, HM: map[string]map[llc.Org]float64{}}
	for g, m := range f1.Groups {
		res.HM[g] = map[llc.Org]float64{}
		for org, agg := range m {
			res.HM[g][org] = agg.HMSpeedup
		}
	}
	return res, nil
}

// Print writes the Figure 8 table followed by a bar rendering of the SAC
// column (the closest a terminal gets to the paper's figure).
func (f *Fig8Result) Print(w io.Writer) {
	printHeader(w, "Fig 8: speedup vs memory-side LLC", orgNames())
	maxSp := 1.0
	for _, br := range f.Runs {
		fmt.Fprintf(w, "%-14s", br.Spec.Name)
		for _, org := range orderedOrgs() {
			sp := br.Speedup(org)
			if sp > maxSp {
				maxSp = sp
			}
			fmt.Fprintf(w, "%12.3f", sp)
		}
		fmt.Fprintln(w)
	}
	for _, g := range []string{"SP", "MP", "ALL"} {
		fmt.Fprintf(w, "%-14s", "HM-"+g)
		for _, org := range orderedOrgs() {
			fmt.Fprintf(w, "%12.3f", f.HM[g][org])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nSAC speedup vs memory-side (| marks 1.0x):\n")
	for _, br := range f.Runs {
		fmt.Fprintf(w, "%-8s %6.2fx %s\n", br.Spec.Name, br.Speedup(llc.SAC),
			bar(br.Speedup(llc.SAC), maxSp, 44))
	}
}

// bar renders v on a 0..max scale of width characters, marking 1.0.
func bar(v, max float64, width int) string {
	if max <= 0 {
		max = 1
	}
	n := int(v / max * float64(width))
	one := int(1 / max * float64(width))
	out := make([]byte, width)
	for i := range out {
		switch {
		case i < n:
			out[i] = '#'
		case i == one:
			out[i] = '|'
		default:
			out[i] = ' '
		}
	}
	if one >= 0 && one < width && one < n {
		out[one] = '+'
	}
	return string(out)
}

// Fig9Result reproduces Figure 9: the fraction of LLC capacity caching
// local versus remote data under each organization.
type Fig9Result struct{ Runs []BenchRuns }

// Fig9 runs the Figure 9 experiment.
func (r *Runner) Fig9() (*Fig9Result, error) {
	runs, err := r.matrix()
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Runs: runs}, nil
}

// Print writes the remote-data occupancy fraction per benchmark and org.
func (f *Fig9Result) Print(w io.Writer) {
	printHeader(w, "Fig 9: fraction of LLC caching remote data", orgNames())
	for _, br := range f.Runs {
		fmt.Fprintf(w, "%-14s", br.Spec.Name)
		for _, org := range orderedOrgs() {
			fmt.Fprintf(w, "%12.3f", br.ByOrg[org].RemoteOccupancy())
		}
		fmt.Fprintln(w)
	}
}

// Fig10Result reproduces Figure 10: effective LLC bandwidth normalized to
// the memory-side configuration, broken down by response origin.
type Fig10Result struct{ Runs []BenchRuns }

// Fig10 runs the Figure 10 experiment.
func (r *Runner) Fig10() (*Fig10Result, error) {
	runs, err := r.matrix()
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Runs: runs}, nil
}

// Print writes, per benchmark and organization, the per-origin breakdown.
func (f *Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Fig 10: effective LLC bandwidth breakdown (normalized to memory-side total) ==\n")
	fmt.Fprintf(w, "%-14s%-14s%12s%12s%12s%12s%12s\n",
		"benchmark", "org", "localLLC", "remoteLLC", "localMem", "remoteMem", "total")
	for _, br := range f.Runs {
		base := br.ByOrg[llc.MemorySide].EffectiveLLCBandwidth()
		if base == 0 {
			base = 1
		}
		for _, org := range orderedOrgs() {
			bd := br.ByOrg[org].RespBreakdown()
			total := 0.0
			fmt.Fprintf(w, "%-14s%-14s", br.Spec.Name, org)
			for _, o := range []memsys.Origin{
				memsys.OriginLocalLLC, memsys.OriginRemoteLLC,
				memsys.OriginLocalMem, memsys.OriginRemoteMem,
			} {
				v := bd[o] / base
				total += v
				fmt.Fprintf(w, "%12.3f", v)
			}
			fmt.Fprintf(w, "%12.3f\n", total)
		}
	}
}

// Headline reproduces the paper's §5.1 headline numbers: SAC's average and
// maximum speedup over each alternative organization.
type Headline struct {
	AvgOver map[llc.Org]float64 // HM over benchmarks of SAC IPC / org IPC
	MaxOver map[llc.Org]float64
}

// Headline computes the headline comparison.
func (r *Runner) Headline() (*Headline, error) {
	runs, err := r.matrix()
	if err != nil {
		return nil, err
	}
	h := &Headline{AvgOver: map[llc.Org]float64{}, MaxOver: map[llc.Org]float64{}}
	for _, org := range orderedOrgs() {
		if org == llc.SAC {
			continue
		}
		var ratios []float64
		maxR := 0.0
		for _, br := range runs {
			ratio := stats.Speedup(br.ByOrg[llc.SAC], br.ByOrg[org])
			ratios = append(ratios, ratio)
			if ratio > maxR {
				maxR = ratio
			}
		}
		h.AvgOver[org] = stats.HarmonicMeanSpeedup(ratios)
		h.MaxOver[org] = maxR
	}
	return h, nil
}

// Print writes the headline rows next to the paper's reported numbers.
func (h *Headline) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== Headline: SAC vs alternatives (paper: +76%% / +12%% / +31%% / +18%% avg) ==\n")
	paper := map[llc.Org]string{
		llc.MemorySide: "+76% (max +157%)",
		llc.SMSide:     "+12% (max +49%)",
		llc.Static:     "+31% (max +92%)",
		llc.Dynamic:    "+18% (max +27%)",
	}
	for _, org := range orderedOrgs() {
		if org == llc.SAC {
			continue
		}
		fmt.Fprintf(w, "SAC vs %-12s avg %+6.1f%%  max %+6.1f%%   (paper: %s)\n",
			org, 100*(h.AvgOver[org]-1), 100*(h.MaxOver[org]-1), paper[org])
	}
}
