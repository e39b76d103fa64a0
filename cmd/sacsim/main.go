// Command sacsim runs one Table-4 benchmark on the simulated multi-chip GPU
// under one LLC organization and reports the run's statistics.
//
// Usage:
//
//	sacsim -bench RN -org SAC
//	sacsim -bench RN -org memory-side,SM-side,SAC    # side-by-side comparison
//	sacsim -bench BFS -org memory-side -scale full
//	sacsim -bench SN -org SAC -metrics-addr :9090 -trace-out run.json
//	sacsim -print-config
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	sac "repro"
	"repro/internal/backend"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/noccost"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the simulation(s) and
// returns the exit status (0 ok, 1 a run failed, 2 bad usage, 3 the
// -timeout expired, which tells a wedged run from a broken one).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sacsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "RN", "benchmark name (see sacsweep -exp table4)")
		orgName     = fs.String("org", "SAC", "LLC organization (or comma list for a comparison): memory-side | SM-side | static | dynamic | SAC")
		scale       = fs.String("scale", "scaled", "machine scale: scaled | full")
		parallel    = fs.Int("parallel", 0, "max simulations in flight for -org lists (0 = all cores)")
		fidelity    = fs.String("fidelity", "", "simulation fidelity: estimate | exact (default exact)")
		sectored    = fs.Bool("sectored", false, "use a sectored LLC (4 sectors/line)")
		hardware    = fs.Bool("hw-coherence", false, "use hardware (directory) coherence")
		inputFactor = fs.Float64("input", 1, "input-set scale factor (Fig 13 axis)")
		faults      = fs.String("faults", "", "fault plan in the DSL, e.g. 'xchip:0.cw@2000-30000*0.5'")
		maxCycles   = fs.Int64("max-cycles", 0, "override the per-kernel cycle limit (0 = preset default)")
		watchdog    = fs.Int64("watchdog", -1, "abort when no request retires for this many cycles (0 = off, -1 = preset default)")
		timeout     = fs.Duration("timeout", 0, "wall-clock limit for the whole invocation (0 = none; exceeding it exits 3)")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus metrics over HTTP at this address (/metrics)")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace_event JSON file (open in Perfetto); single-org runs only")
		metricsWin  = fs.Int64("metrics-window", 0, "metrics sampling window in cycles (0 = default)")
		pprofOn     = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics-addr server")
		printConfig = fs.Bool("print-config", false, "print the configuration (Table 3) and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "sacsim:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sacsim:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			return 3
		}
		return 1
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cfg sac.Config
	switch *scale {
	case "scaled":
		cfg = sac.ScaledConfig()
	case "full":
		cfg = sac.PaperConfig()
	default:
		return usage(fmt.Errorf("unknown -scale %q (want scaled or full)", *scale))
	}
	var orgs []llc.Org
	for _, name := range strings.Split(*orgName, ",") {
		org, err := llc.ParseOrg(strings.TrimSpace(name))
		if err != nil {
			return usage(err)
		}
		orgs = append(orgs, org)
	}
	// An unknown rung, or an org the rung does not price, fails before any work.
	if err := backend.Covers(*fidelity, orgs); err != nil {
		return fail(err)
	}
	cfg.Org = orgs[0]
	cfg.Sectored = *sectored
	if *hardware {
		cfg.Coherence = coherence.Hardware
	}
	if *maxCycles > 0 {
		cfg.MaxCycles = *maxCycles
	}
	if *watchdog >= 0 {
		cfg.WatchdogCycles = *watchdog
	}
	var plan *sac.FaultPlan
	if *faults != "" {
		var err error
		if plan, err = fault.Parse(*faults); err != nil {
			return fail(err)
		}
		if err := plan.Validate(cfg.FaultShape()); err != nil {
			return fail(err)
		}
	}

	if *printConfig {
		printTable3(stdout, cfg)
		return 0
	}

	spec, err := sac.Benchmark(*bench)
	if err != nil {
		return fail(err)
	}
	if *inputFactor != 1 {
		spec = spec.ScaleInput(*inputFactor)
	}

	if len(orgs) > 1 {
		if *traceOut != "" {
			return fail(fmt.Errorf("-trace-out requires a single -org (got %d)", len(orgs)))
		}
		if err := compareOrgs(ctx, stdout, cfg, spec, orgs, plan, *parallel, *fidelity, *scale, *metricsAddr, *pprofOn); err != nil {
			return fail(err)
		}
		return 0
	}

	// Observability: one observer feeds both the live /metrics endpoint and
	// the trace file. Without either flag no observer is attached and the
	// simulation runs on its allocation-free fast path.
	var observer *sac.Observer
	if *metricsAddr != "" || *traceOut != "" {
		observer = sac.NewObserver(*metricsWin)
		if *traceOut == "" {
			observer.Trace = nil // metrics only: don't buffer events
		}
		if *metricsAddr != "" {
			ms, err := serveMetrics(stdout, *metricsAddr, observer.Metrics, *pprofOn)
			if err != nil {
				return fail(err)
			}
			defer ms.Close()
		} else {
			observer.Metrics = nil // trace only: don't register series
		}
	}

	fmt.Fprintf(stdout, "running %s under %s (%s scale, %s fidelity)...\n",
		spec.Name, cfg.Org, *scale, backend.Display(*fidelity))
	st, err := sac.Run(cfg, spec,
		sac.WithFaults(plan),
		sac.WithObserver(observer),
		sac.WithFidelity(sac.Fidelity(*fidelity)),
		sac.WithContext(ctx))
	if err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, observer.Trace); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			observer.Trace.Len(), *traceOut)
	}

	fmt.Fprintf(stdout, "\ncycles            %12d\n", st.Cycles)
	fmt.Fprintf(stdout, "memory ops        %12d (%d reads, %d writes)\n", st.MemOps, st.Reads, st.Writes)
	fmt.Fprintf(stdout, "IPC (mem ops/cyc) %12.4f\n", st.IPC())
	fmt.Fprintf(stdout, "L1 hit rate       %12.4f\n", hitRate(st.L1Hits, st.L1Misses))
	fmt.Fprintf(stdout, "LLC hit rate      %12.4f\n", st.LLCHitRate())
	fmt.Fprintf(modeled(stdout, *fidelity, "RespBytes"), "eff. LLC BW       %12.2f B/cycle\n", st.EffectiveLLCBandwidth())
	fmt.Fprintf(modeled(stdout, *fidelity, "ReadLatencySum", "ReadLatencyN"), "avg read latency  %12.1f cycles\n", st.AvgReadLatency())
	fmt.Fprintf(stdout, "ring traffic      %12d bytes\n", st.RingBytes)
	fmt.Fprintf(stdout, "DRAM traffic      %12d bytes\n", st.DRAMBytes)
	fmt.Fprintf(modeled(stdout, *fidelity, "OccLocalSum", "OccRemoteSum"), "LLC remote occup. %12.4f\n", st.RemoteOccupancy())
	if st.Reconfigs > 0 || cfg.Org == llc.SAC {
		fmt.Fprintf(modeled(stdout, *fidelity, "Reconfigs"), "reconfigurations  %12d (flushed %d dirty lines, %d drain cycles)\n",
			st.Reconfigs, st.DirtyFlushed, st.DrainCycles)
	}
	if plan != nil {
		fmt.Fprintf(stdout, "fault events      %12d (plan %s)\n", st.FaultEvents, plan.Key())
	}
	origins := modeled(stdout, *fidelity, "RespBytes")
	fmt.Fprintln(origins, "\nresponse origin breakdown (bytes/cycle):")
	bd := st.RespBreakdown()
	for _, o := range []memsys.Origin{memsys.OriginLocalLLC, memsys.OriginRemoteLLC,
		memsys.OriginLocalMem, memsys.OriginRemoteMem} {
		fmt.Fprintf(origins, "  %-10s %10.2f\n", o, bd[o])
	}
	fmt.Fprintln(stdout, "\nper-kernel records:")
	for _, k := range st.Kernels {
		fmt.Fprintf(stdout, "  #%-3d %-10s %-12s %10d cycles %10d ops\n",
			k.Index, k.Name, k.Org, k.Cycles, k.MemOps)
	}
	return 0
}

// compareOrgs runs one benchmark under several organizations through the
// parallel experiment engine and prints them side by side.
func compareOrgs(ctx context.Context, w io.Writer, cfg sac.Config, spec sac.Spec, orgs []llc.Org, plan *sac.FaultPlan, parallel int, fidelity, scale string, metricsAddr string, pprofOn bool) error {
	r := sac.NewRunner()
	r.Parallelism = parallel
	r.Faults = plan
	r.Fidelity = fidelity
	r.Ctx = ctx
	if metricsAddr != "" {
		r.Obs = sac.NewObserver(0)
		r.Obs.Trace = nil
		ms, err := serveMetrics(w, metricsAddr, r.Obs.Metrics, pprofOn)
		if err != nil {
			return err
		}
		defer ms.Close()
	}
	reqs := make([]sac.RunRequest, len(orgs))
	for i, org := range orgs {
		c := cfg
		c.Org = org
		reqs[i] = sac.RunRequest{Cfg: c, Spec: spec}
	}
	fmt.Fprintf(w, "running %s under %d organizations (%s scale)...\n", spec.Name, len(orgs), scale)
	runs, err := r.RunAll(reqs)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-18s", "")
	for _, org := range orgs {
		fmt.Fprintf(w, "%14s", org)
	}
	fmt.Fprintln(w)
	row := func(label string, f func(run *sac.Stats) string, fields ...string) {
		w := modeled(w, fidelity, fields...)
		fmt.Fprintf(w, "%-18s", label)
		for _, run := range runs {
			fmt.Fprintf(w, "%14s", f(run))
		}
		fmt.Fprintln(w)
	}
	row("cycles", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.Cycles) })
	row("IPC", func(run *sac.Stats) string { return fmt.Sprintf("%.4f", run.IPC()) })
	row("speedup", func(run *sac.Stats) string { return fmt.Sprintf("%.3fx", stats.Speedup(run, runs[0])) })
	row("LLC hit rate", func(run *sac.Stats) string { return fmt.Sprintf("%.4f", run.LLCHitRate()) })
	row("eff. LLC BW", func(run *sac.Stats) string { return fmt.Sprintf("%.2f B/c", run.EffectiveLLCBandwidth()) }, "RespBytes")
	row("read latency", func(run *sac.Stats) string { return fmt.Sprintf("%.1f", run.AvgReadLatency()) }, "ReadLatencySum", "ReadLatencyN")
	row("ring bytes", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.RingBytes) })
	row("DRAM bytes", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.DRAMBytes) })
	row("reconfigs", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.Reconfigs) }, "Reconfigs")
	return nil
}

// modeled is w if the rung fills the named stats.Run fields, else io.Discard.
func modeled(w io.Writer, fidelity string, fields ...string) io.Writer {
	if backend.Covers(fidelity, nil, fields...) != nil {
		return io.Discard
	}
	return w
}

func hitRate(h, m int64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func printTable3(w io.Writer, cfg sac.Config) {
	fmt.Fprintln(w, "Simulated configuration (paper Table 3 at the selected scale):")
	fmt.Fprintf(w, "  chips                  %d\n", cfg.Chips)
	fmt.Fprintf(w, "  SMs                    %d per chip, %d total\n", cfg.SMsPerChip, cfg.Chips*cfg.SMsPerChip)
	fmt.Fprintf(w, "  warps per SM           %d\n", cfg.WarpsPerSM)
	fmt.Fprintf(w, "  NoC                    %dx%d crossbar per chip, %.0f B/c per cluster port\n",
		cfg.ClustersPerChip()+1, cfg.SlicesPerChip+1, cfg.ClusterBW)
	fmt.Fprintf(w, "  inter-chip ring        %.0f B/c per pair per direction, hop latency %d\n",
		cfg.RingLinkBW, cfg.RingHopLatency)
	fmt.Fprintf(w, "  LLC                    %d slices/chip x %.0f B/c, %d KB/chip, %d-way\n",
		cfg.SlicesPerChip, cfg.SliceBW, cfg.LLCBytesPerChip>>10, cfg.LLCWays)
	fmt.Fprintf(w, "  DRAM                   %d channels/chip x %.1f B/c, latency %d\n",
		cfg.ChannelsPerChip, cfg.ChannelBW, cfg.DRAMLatency)
	fmt.Fprintf(w, "  L1                     %d KB per SM, %d-way, latency %d\n",
		cfg.L1BytesPerSM>>10, cfg.L1Ways, cfg.L1Latency)
	fmt.Fprintf(w, "  line/page              %d B / %d B, first-touch placement, PAE mapping\n",
		cfg.Geom.LineBytes, cfg.Geom.PageBytes)
	fmt.Fprintf(w, "  coherence              %s\n", cfg.Coherence)
	fmt.Fprintf(w, "  workload scale         1/%d of paper footprints\n", cfg.WorkloadScale)
	a := cfg.ArchParams()
	fmt.Fprintf(w, "  EAB arch params        B_intra=%.0f B_inter=%.0f B_LLC=%.0f B_mem=%.0f (B/cycle)\n",
		a.BIntra, a.BInter, a.BLLC, a.BMem)
	b := sac.HardwareBudget(cfg.Sectored)
	fmt.Fprintf(w, "  SAC counter budget     %d bytes per chip (CRD %d + LSU %d + scalars %d)\n",
		b.TotalBytes, b.CRDBytes, b.LSUBytes, b.ScalarBytes)
	noccost.Compare(noccost.PaperShape(), noccost.Tech22()).Print(w)
}

// serveMetrics exposes a registry over HTTP; the caller closes the returned
// server on exit so the listener shuts down cooperatively.
func serveMetrics(w io.Writer, addr string, reg *sac.MetricsRegistry, pprofOn bool) (*obs.MetricsServer, error) {
	ms, err := obs.Serve(addr, reg, pprofOn)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "serving metrics at http://%s/metrics\n", ms.Addr())
	return ms, nil
}

// writeTrace dumps the tracer's events as a Perfetto-loadable JSON file.
func writeTrace(path string, tr *sac.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
