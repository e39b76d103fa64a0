// Command sacsweep regenerates the paper's tables and figures.
//
// Usage:
//
//	sacsweep -exp fig8                # per-benchmark speedups, all 16 workloads
//	sacsweep -exp fig14 -set fast     # design-space sweep over the fast subset
//	sacsweep -exp all -set fast       # every experiment
//
// Experiments: table4, fig1, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
// headline, ablation, noccost, eabval, all.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/noccost"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the named experiments and
// returns the exit status (0 ok, 1 an experiment failed, 2 bad usage, 3 the
// -timeout expired).
func run(args []string, stdout, stderr io.Writer) int {
	// Cells finish concurrently, and each may report on stderr.
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("sacsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "fig8", "experiment id (or comma list; 'all' for everything)")
		set         = fs.String("set", "all", "benchmark set: all | fast | comma-separated names")
		parallel    = fs.Int("parallel", 0, "max simulations in flight (0 = all cores, 1 = serial)")
		fidelity    = fs.String("fidelity", "", "simulation fidelity for every cell: estimate | sampled | exact (default exact)")
		verbose     = fs.Bool("v", false, "log each completed simulation")
		jsonOut     = fs.Bool("json", false, "emit results as JSON instead of tables")
		faults      = fs.String("faults", "", "fault plan injected into every simulation: JSON file path or inline DSL")
		maxCycles   = fs.Int64("max-cycles", 0, "override the per-kernel cycle limit (0 = preset default)")
		watchdog    = fs.Int64("watchdog", -1, "abort a run when no request retires for this many cycles (0 = off, -1 = preset default)")
		timeout     = fs.Duration("timeout", 0, "wall-clock limit for the whole invocation (0 = none; exceeding it exits 3)")
		metricsAddr = fs.String("metrics-addr", "", "serve live sweep metrics over HTTP at this address (/metrics)")
		pprofOn     = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics-addr server")
		progress    = fs.Bool("progress", false, "print one line per completed sweep cell to stderr")
		cacheDir    = fs.String("cache-dir", "", "persistent result cache directory (shared with sacd); warm entries skip simulation")
		remote      = fs.String("remote", "", "execute every cell through the saccoord coordinator (or single sacd) at this base URL instead of simulating in-process")
		cacheMax    = fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this many bytes (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sacsweep:", err)
		return 1
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := sac.NewRunner()
	r.Parallelism = *parallel
	r.Fidelity = *fidelity
	r.Verbose = *verbose
	r.Log = stderr
	r.Ctx = ctx
	if *metricsAddr != "" {
		r.Obs = sac.NewObserver(0)
		r.Obs.Trace = nil
		var opts []obs.ServeOption
		if *pprofOn {
			opts = append(opts, obs.WithPprof())
		}
		ms, err := obs.Serve(*metricsAddr, r.Obs.Metrics, opts...)
		if err != nil {
			return fail(err)
		}
		defer ms.Close()
		fmt.Fprintf(stderr, "sacsweep: serving metrics at http://%s/metrics\n", ms.Addr())
	}
	if *remote != "" {
		r.Simulate = remoteExecutor(ctx, *remote)
		if *parallel == 0 {
			// Remote cells burn no local CPU, so the cores-bound default
			// starves batching; results are bit-identical at any parallelism,
			// and wide concurrency is what fills each batch window.
			r.Parallelism = 64
		}
		fmt.Fprintf(stderr, "sacsweep: executing cells remotely via %s\n", *remote)
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir, store.Options{MaxBytes: *cacheMax})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		r.Store = st
		if *progress {
			// Report the warm/cold split once the sweep is done.
			defer func() {
				fmt.Fprintf(stderr, "# cache %s: %d hits, %d misses (%d objects, %d bytes)\n",
					*cacheDir, st.Hits(), st.Misses(), st.Len(), st.SizeBytes())
			}()
		}
	}
	if *progress {
		r.OnCellDone = func(c sac.CellResult) {
			status := "ok"
			if c.Err != nil {
				status = "FAILED"
			}
			fid := c.Fidelity
			if fid == "" {
				fid = "exact"
			}
			fmt.Fprintf(stderr, "# cell %-10s %-12s %-8s %-8s cycles=%d\n",
				c.Benchmark, c.Org, fid, status, c.Cycles)
		}
	}
	if *maxCycles > 0 {
		r.Base.MaxCycles = *maxCycles
	}
	if *watchdog >= 0 {
		r.Base.WatchdogCycles = *watchdog
	}
	if *faults != "" {
		plan, err := fault.ParseOrLoad(*faults)
		if err != nil {
			return fail(err)
		}
		if err := plan.Validate(r.Base.FaultShape()); err != nil {
			return fail(err)
		}
		r.Faults = plan
	}
	switch *set {
	case "all":
		// all 16
	case "fast":
		r.Benchmarks = sac.FastSet()
	default:
		r.Benchmarks = strings.Split(*set, ",")
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table4", "fig1", "fig8", "fig9", "fig10", "fig11",
			"fig12", "fig13", "fig14", "headline", "ablation", "noccost", "eabval"}
	}
	// One failing experiment does not abort the sweep: report it, keep
	// going, and exit non-zero at the end if anything failed. A sweep killed
	// by the -timeout context exits 3 (the historical supervisor-kill code),
	// distinguishing a wedged run from a broken one.
	failed, timedOut := 0, false
	for _, id := range ids {
		t0 := time.Now()
		if err := runExperiment(stdout, r, strings.TrimSpace(id), *jsonOut); err != nil {
			fmt.Fprintf(stderr, "sacsweep: %s failed: %v\n", id, err)
			failed++
			if errors.Is(err, context.DeadlineExceeded) {
				timedOut = true
			}
			continue
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "\n# %s done in %.1fs (%d simulations cached)\n", id, time.Since(t0).Seconds(), r.Runs())
		}
	}
	if timedOut {
		fmt.Fprintf(stderr, "sacsweep: wall-clock timeout after %v\n", *timeout)
		return 3
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "sacsweep: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// syncWriter serializes writes to w.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// emit renders one experiment result as a table or as JSON.
func emit(w io.Writer, res printer, id string, jsonOut bool) error {
	if !jsonOut {
		res.Print(w)
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": id, "result": res})
}

// experiment adapts an experiment method to the table's common shape.
func experiment[T printer](f func(*sac.Runner) (T, error)) func(*sac.Runner) (printer, error) {
	return func(r *sac.Runner) (printer, error) {
		res, err := f(r)
		return res, err
	}
}

// experiments maps an experiment id to the run that produces its result;
// "ablation" is the one id that produces several (ablations).
var experiments = map[string]func(*sac.Runner) (printer, error){
	"table4":   experiment((*sac.Runner).Table4),
	"fig1":     experiment((*sac.Runner).Fig1),
	"fig8":     experiment((*sac.Runner).Fig8),
	"fig9":     experiment((*sac.Runner).Fig9),
	"fig10":    experiment((*sac.Runner).Fig10),
	"fig11":    experiment((*sac.Runner).Fig11),
	"fig12":    experiment((*sac.Runner).Fig12),
	"fig13":    func(r *sac.Runner) (printer, error) { return r.Fig13(nil, nil) },
	"fig14":    func(r *sac.Runner) (printer, error) { return r.Fig14(nil) },
	"headline": experiment((*sac.Runner).Headline),
	"noccost": func(*sac.Runner) (printer, error) {
		return noccost.Compare(noccost.PaperShape(), noccost.Tech22()), nil
	},
	"eabval": experiment((*sac.Runner).ValidateEAB),
}

var ablations = []func(*sac.Runner) (printer, error){
	experiment((*sac.Runner).AblateTheta),
	experiment((*sac.Runner).AblateWindow),
	experiment((*sac.Runner).AblateLSU),
	experiment((*sac.Runner).AblateDecisionCache),
	experiment((*sac.Runner).AblateReprofile),
}

func runExperiment(w io.Writer, r *sac.Runner, id string, jsonOut bool) error {
	runs := ablations
	if id != "ablation" {
		run, ok := experiments[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		runs = []func(*sac.Runner) (printer, error){run}
	}
	for _, run := range runs {
		res, err := run(r)
		if err != nil {
			return err
		}
		if err := emit(w, res, id, jsonOut); err != nil {
			return err
		}
	}
	return nil
}

// printer is the common surface of every experiment result.
type printer interface{ Print(w io.Writer) }

// remoteExecutor plugs a fleet into the Runner: each cell becomes one job
// against a saccoord coordinator (or a single sacd daemon — the APIs are
// identical), shipped with its full explicit config so the remote cache key
// equals the local one and results come back byte-identical to an
// in-process sweep. Concurrent cells coalesce through a client.Batcher into
// jobs:batch submissions collected by one shared jobs:watch long-poll, so a
// sweep's protocol cost is per batch, not per cell. Cells the remote cannot
// name (ScaleInput variants exist only in this process's catalog) quietly
// run locally — a sweep is never partial because one experiment synthesizes
// workloads.
func remoteExecutor(ctx context.Context, base string) func(gpu.Config, sac.Spec, gpu.RunOpts) (*sac.Stats, error) {
	b := client.NewBatcher(client.New(base))
	return func(cfg gpu.Config, spec sac.Spec, o gpu.RunOpts) (*sac.Stats, error) {
		if _, err := workload.ByName(spec.Name); err != nil {
			return backend.Run(cfg, spec, o)
		}
		req := client.JobRequest{
			Benchmark: spec.Name,
			Org:       cfg.Org.String(),
			Config:    &cfg,
			Fidelity:  o.Fidelity,
		}
		if !o.Faults.Empty() {
			req.Faults = o.Faults.String()
		}
		cctx := o.Ctx
		if cctx == nil {
			cctx = ctx
		}
		return b.Run(cctx, req)
	}
}
