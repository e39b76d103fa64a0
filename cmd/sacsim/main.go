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

func main() {
	var (
		bench       = flag.String("bench", "RN", "benchmark name (see sacworkloads)")
		orgName     = flag.String("org", "SAC", "LLC organization (or comma list for a comparison): memory-side | SM-side | static | dynamic | SAC")
		scale       = flag.String("scale", "scaled", "machine scale: scaled | full")
		parallel    = flag.Int("parallel", 0, "max simulations in flight for -org lists (0 = all cores)")
		fidelity    = flag.String("fidelity", "", "simulation fidelity: estimate | sampled | exact (default exact)")
		sectored    = flag.Bool("sectored", false, "use a sectored LLC (4 sectors/line)")
		hardware    = flag.Bool("hw-coherence", false, "use hardware (directory) coherence")
		inputFactor = flag.Float64("input", 1, "input-set scale factor (Fig 13 axis)")
		faults      = flag.String("faults", "", "fault plan: a JSON file path or an inline DSL string (e.g. 'xchip:0.cw@2000-30000*0.5')")
		maxCycles   = flag.Int64("max-cycles", 0, "override the per-kernel cycle limit (0 = preset default)")
		watchdog    = flag.Int64("watchdog", -1, "abort when no request retires for this many cycles (0 = off, -1 = preset default)")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole invocation (0 = none; exceeding it exits 3)")
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics over HTTP at this address (/metrics Prometheus, /metrics.json)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON file (open in Perfetto); single-org runs only")
		metricsWin  = flag.Int64("metrics-window", 0, "metrics sampling window in cycles (0 = default)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics-addr server")
		printConfig = flag.Bool("print-config", false, "print the configuration (Table 3) and exit")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := sac.ScaledConfig()
	if *scale == "full" {
		cfg = sac.PaperConfig()
	}
	var orgs []llc.Org
	for _, name := range strings.Split(*orgName, ",") {
		org, err := llc.ParseOrg(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		orgs = append(orgs, org)
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
		if plan, err = fault.ParseOrLoad(*faults); err != nil {
			fatal(err)
		}
		if err := plan.Validate(cfg.FaultShape()); err != nil {
			fatal(err)
		}
	}

	if *printConfig {
		printTable3(cfg)
		return
	}

	spec, err := sac.Benchmark(*bench)
	if err != nil {
		fatal(err)
	}
	if *inputFactor != 1 {
		spec = spec.ScaleInput(*inputFactor)
	}

	if len(orgs) > 1 {
		if *traceOut != "" {
			fatal(fmt.Errorf("-trace-out requires a single -org (got %d)", len(orgs)))
		}
		compareOrgs(ctx, cfg, spec, orgs, plan, *parallel, *fidelity, *scale, *metricsAddr, *pprofOn)
		return
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
			defer serveMetrics(*metricsAddr, observer.Metrics, *pprofOn).Close()
		} else {
			observer.Metrics = nil // trace only: don't register series
		}
	}

	fmt.Printf("running %s under %s (%s scale, %s fidelity)...\n",
		spec.Name, cfg.Org, *scale, backend.Display(*fidelity))
	run, err := sac.Run(cfg, spec,
		sac.WithFaults(plan),
		sac.WithObserver(observer),
		sac.WithFidelity(sac.Fidelity(*fidelity)),
		sac.WithContext(ctx))
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, observer.Trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			observer.Trace.Len(), *traceOut)
	}

	fmt.Printf("\ncycles            %12d\n", run.Cycles)
	fmt.Printf("memory ops        %12d (%d reads, %d writes)\n", run.MemOps, run.Reads, run.Writes)
	fmt.Printf("IPC (mem ops/cyc) %12.4f\n", run.IPC())
	fmt.Printf("L1 hit rate       %12.4f\n", hitRate(run.L1Hits, run.L1Misses))
	fmt.Printf("LLC hit rate      %12.4f\n", run.LLCHitRate())
	fmt.Printf("eff. LLC BW       %12.2f B/cycle\n", run.EffectiveLLCBandwidth())
	fmt.Printf("avg read latency  %12.1f cycles\n", run.AvgReadLatency())
	fmt.Printf("ring traffic      %12d bytes\n", run.RingBytes)
	fmt.Printf("DRAM traffic      %12d bytes\n", run.DRAMBytes)
	fmt.Printf("LLC remote occup. %12.4f\n", run.RemoteOccupancy())
	if run.Reconfigs > 0 || cfg.Org == llc.SAC {
		fmt.Printf("reconfigurations  %12d (flushed %d dirty lines, %d drain cycles)\n",
			run.Reconfigs, run.DirtyFlushed, run.DrainCycles)
	}
	if plan != nil {
		fmt.Printf("fault events      %12d (plan %s)\n", run.FaultEvents, plan.Key())
	}
	fmt.Println("\nresponse origin breakdown (bytes/cycle):")
	bd := run.RespBreakdown()
	for _, o := range []memsys.Origin{memsys.OriginLocalLLC, memsys.OriginRemoteLLC,
		memsys.OriginLocalMem, memsys.OriginRemoteMem} {
		fmt.Printf("  %-10s %10.2f\n", o, bd[o])
	}
	fmt.Println("\nper-kernel records:")
	for _, k := range run.Kernels {
		fmt.Printf("  #%-3d %-10s %-12s %10d cycles %10d ops\n",
			k.Index, k.Name, k.Org, k.Cycles, k.MemOps)
	}
}

// compareOrgs runs one benchmark under several organizations through the
// parallel experiment engine and prints them side by side.
func compareOrgs(ctx context.Context, cfg sac.Config, spec sac.Spec, orgs []llc.Org, plan *sac.FaultPlan, parallel int, fidelity, scale string, metricsAddr string, pprofOn bool) {
	r := sac.NewRunner()
	r.Parallelism = parallel
	r.Faults = plan
	r.Fidelity = fidelity
	r.Ctx = ctx
	if metricsAddr != "" {
		r.Obs = sac.NewObserver(0)
		r.Obs.Trace = nil
		defer serveMetrics(metricsAddr, r.Obs.Metrics, pprofOn).Close()
	}
	reqs := make([]sac.RunRequest, len(orgs))
	for i, org := range orgs {
		c := cfg
		c.Org = org
		reqs[i] = sac.RunRequest{Cfg: c, Spec: spec}
	}
	fmt.Printf("running %s under %d organizations (%s scale)...\n", spec.Name, len(orgs), scale)
	runs, err := r.RunAll(reqs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\n%-18s", "")
	for _, org := range orgs {
		fmt.Printf("%14s", org)
	}
	fmt.Println()
	row := func(label string, f func(run *sac.Stats) string) {
		fmt.Printf("%-18s", label)
		for _, run := range runs {
			fmt.Printf("%14s", f(run))
		}
		fmt.Println()
	}
	row("cycles", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.Cycles) })
	row("IPC", func(run *sac.Stats) string { return fmt.Sprintf("%.4f", run.IPC()) })
	row("speedup", func(run *sac.Stats) string { return fmt.Sprintf("%.3fx", stats.Speedup(run, runs[0])) })
	row("LLC hit rate", func(run *sac.Stats) string { return fmt.Sprintf("%.4f", run.LLCHitRate()) })
	row("eff. LLC BW", func(run *sac.Stats) string { return fmt.Sprintf("%.2f B/c", run.EffectiveLLCBandwidth()) })
	row("read latency", func(run *sac.Stats) string { return fmt.Sprintf("%.1f", run.AvgReadLatency()) })
	row("ring bytes", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.RingBytes) })
	row("DRAM bytes", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.DRAMBytes) })
	row("reconfigs", func(run *sac.Stats) string { return fmt.Sprintf("%d", run.Reconfigs) })
}

func hitRate(h, m int64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func printTable3(cfg sac.Config) {
	fmt.Println("Simulated configuration (paper Table 3 at the selected scale):")
	fmt.Printf("  chips                  %d\n", cfg.Chips)
	fmt.Printf("  SMs                    %d per chip, %d total\n", cfg.SMsPerChip, cfg.Chips*cfg.SMsPerChip)
	fmt.Printf("  warps per SM           %d\n", cfg.WarpsPerSM)
	fmt.Printf("  NoC                    %dx%d crossbar per chip, %.0f B/c per cluster port\n",
		cfg.ClustersPerChip()+1, cfg.SlicesPerChip+1, cfg.ClusterBW)
	fmt.Printf("  inter-chip ring        %.0f B/c per pair per direction, hop latency %d\n",
		cfg.RingLinkBW, cfg.RingHopLatency)
	fmt.Printf("  LLC                    %d slices/chip x %.0f B/c, %d KB/chip, %d-way\n",
		cfg.SlicesPerChip, cfg.SliceBW, cfg.LLCBytesPerChip>>10, cfg.LLCWays)
	fmt.Printf("  DRAM                   %d channels/chip x %.1f B/c, latency %d\n",
		cfg.ChannelsPerChip, cfg.ChannelBW, cfg.DRAMLatency)
	fmt.Printf("  L1                     %d KB per SM, %d-way, latency %d\n",
		cfg.L1BytesPerSM>>10, cfg.L1Ways, cfg.L1Latency)
	fmt.Printf("  line/page              %d B / %d B, first-touch placement, PAE mapping\n",
		cfg.Geom.LineBytes, cfg.Geom.PageBytes)
	fmt.Printf("  coherence              %s\n", cfg.Coherence)
	fmt.Printf("  workload scale         1/%d of paper footprints\n", cfg.WorkloadScale)
	a := cfg.ArchParams()
	fmt.Printf("  EAB arch params        B_intra=%.0f B_inter=%.0f B_LLC=%.0f B_mem=%.0f (B/cycle)\n",
		a.BIntra, a.BInter, a.BLLC, a.BMem)
	b := sac.HardwareBudget(cfg.Sectored)
	fmt.Printf("  SAC counter budget     %d bytes per chip (CRD %d + LSU %d + scalars %d)\n",
		b.TotalBytes, b.CRDBytes, b.LSUBytes, b.ScalarBytes)
	noccost.Compare(noccost.PaperShape(), noccost.Tech22()).Print(os.Stdout)
}

// serveMetrics exposes a registry over HTTP; the returned server is closed
// on exit so the listener shuts down cooperatively.
func serveMetrics(addr string, reg *sac.MetricsRegistry, pprofOn bool) *obs.MetricsServer {
	var opts []obs.ServeOption
	if pprofOn {
		opts = append(opts, obs.WithPprof())
	}
	ms, err := obs.Serve(addr, reg, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving metrics at http://%s/metrics\n", ms.Addr())
	return ms
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

// fatal reports a failure and exits. A run killed by the -timeout context
// exits 3, distinguishing the supervisor kill from simulation errors (1) so
// scripted pipelines can tell a wedged run from a broken one.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sacsim:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		os.Exit(3)
	}
	os.Exit(1)
}
