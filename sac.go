// Package sac is a from-scratch reproduction of "SAC: Sharing-Aware Caching
// in Multi-Chip GPUs" (Zhang, Naderan-Tahan, Jahre, Eeckhout — ISCA 2023).
//
// It bundles a cycle-driven multi-chip GPU memory-system simulator (SMs with
// private L1s, per-chip crossbar NoCs, LLC slices with MSHRs, an inter-chip
// ring, DRAM partitions, first-touch page placement and PAE address
// mapping), the five LLC organizations the paper compares (memory-side,
// SM-side, the Static L1.5, Dynamic way-partitioning, and SAC itself), the
// EAB analytical model with its CRD-based profiling counters, the 16
// Table-4 workloads as deterministic synthetic address streams, and a
// harness that regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := sac.ScaledConfig()                  // laptop-scale Table 3
//	spec, _ := sac.Benchmark("RN")             // a Table 4 workload
//	mem, _ := sac.Run(cfg.WithOrg(sac.MemorySide), spec)
//	dyn, _ := sac.Run(cfg.WithOrg(sac.SAC), spec)
//	fmt.Printf("SAC speedup: %.2fx\n", sac.Speedup(dyn, mem))
//
// Experiments:
//
//	r := sac.NewRunner()
//	fig8, _ := r.Fig8()
//	fig8.Print(os.Stdout)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every experiment.
package sac

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/noccost"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config describes a simulated multi-chip GPU (the paper's Table 3).
type Config = gpu.Config

// PaperConfig returns the paper's full-scale Table 3 baseline.
func PaperConfig() Config { return gpu.PaperConfig() }

// ScaledConfig returns the laptop-scale preset with all of the paper's
// bandwidth and capacity ratios preserved (DESIGN.md §7).
func ScaledConfig() Config { return gpu.ScaledConfig() }

// MCMConfig returns the interposer-class multi-chip-module variant (high
// inter-chip bandwidth; the paper's intro taxonomy).
func MCMConfig() Config { return gpu.MCMConfig() }

// MultiSocketConfig returns the PCB-level multi-socket variant (PCIe-class
// inter-chip links).
func MultiSocketConfig() Config { return gpu.MultiSocketConfig() }

// Org selects a last-level-cache organization.
type Org = llc.Org

// The five organizations of the paper's comparison (§5).
const (
	MemorySide = llc.MemorySide
	SMSide     = llc.SMSide
	Static     = llc.Static
	Dynamic    = llc.Dynamic
	SAC        = llc.SAC
)

// Orgs lists all organizations in comparison order.
func Orgs() []Org { return llc.Orgs() }

// Spec is a benchmark workload (a sequence of kernel invocations).
type Spec = workload.Spec

// Kernel parameterizes one kernel invocation's address stream.
type Kernel = workload.Kernel

// Benchmarks returns the 16 Table-4 workloads in paper order.
func Benchmarks() []Spec { return workload.Catalog() }

// Benchmark returns one Table-4 workload by name (e.g. "BFS").
func Benchmark(name string) (Spec, error) { return workload.ByName(name) }

// BenchmarkNames returns the catalog names in paper order.
func BenchmarkNames() []string { return workload.Names() }

// Stats holds the measurements of one simulation (IPC, LLC hit rates,
// response-origin breakdown, occupancy census, per-kernel records, ...).
type Stats = stats.Run

// guard converts a panic escaping a library entry point into a returned
// error, so a simulator bug fails the one call instead of the caller's
// process. The full panic value is preserved in the error text.
func guard(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("sac: internal panic: %v", v)
	}
}

// Workload is any source of per-warp access streams: the built-in synthetic
// Specs and trace replays (package repro/internal/trace) both implement it.
type Workload = gpu.Workload

// Fidelity selects one rung of the simulation fidelity ladder: how much
// accuracy a Run buys with how much time. All three rungs are deterministic
// and share the decision contract pinned by the cross-fidelity tests: the
// fast rungs predict the exact engine's SAC org decision on all 16 Table-4
// workloads.
type Fidelity string

// The fidelity rungs, cheapest first.
const (
	// FidelityEstimate evaluates the paper's EAB analytical model over a
	// short profiled stream prefix — no cycle loop at all, microseconds to
	// low milliseconds per workload. Cycle counts are closed-form estimates;
	// fault plans are not supported.
	FidelityEstimate Fidelity = backend.Estimate
	// FidelitySampled cycle-simulates each kernel's opening interval on the
	// real engine (covering SAC's profiling window, so decisions are taken
	// by the genuine controller) and extrapolates the remainder
	// analytically. Typically one to two orders of magnitude faster than
	// exact.
	FidelitySampled Fidelity = backend.Sampled
	// FidelityExact is the unmodified cycle-exact simulator — the default,
	// byte-identical to a Run without WithFidelity.
	FidelityExact Fidelity = backend.Exact
)

// RunOption configures one Run call. Options compose; later options win on
// conflict. A Run with no options is a plain healthy, unobserved,
// uncancellable simulation.
type RunOption func(*gpu.RunOpts)

// WithFidelity selects the backend rung a Run executes on ("" keeps the
// cycle-exact default). Results carry their rung in Stats.Fidelity, and the
// result cache keys estimate/sampled/exact results separately, so a fast
// rung's answer is never served for an exact request.
func WithFidelity(f Fidelity) RunOption {
	return func(o *gpu.RunOpts) { o.Fidelity = string(f) }
}

// WithFaults injects a deterministic fault plan (nil or empty plan is
// exactly a healthy run).
func WithFaults(plan *FaultPlan) RunOption {
	return func(o *gpu.RunOpts) { o.Faults = plan }
}

// WithObserver attaches an observability sink: its metrics registry is
// updated on every sampling window and its tracer records kernel, SAC,
// fault and watchdog events. A nil (or empty) observer is ignored.
func WithObserver(ob *Observer) RunOption {
	return func(o *gpu.RunOpts) { o.Observer = ob }
}

// WithMetricsWindow sets the metrics sampling window in cycles (only
// meaningful together with WithObserver; 0 keeps the observer's own window,
// then the package default of obs.DefaultWindow cycles).
func WithMetricsWindow(n int64) RunOption {
	return func(o *gpu.RunOpts) { o.MetricsWindow = n }
}

// WithContext makes the run cancellable: the cycle loop polls ctx on a
// coarse stride and a canceled run returns ctx's error wrapped in a
// *CellError naming the benchmark and organization.
func WithContext(ctx context.Context) RunOption {
	return func(o *gpu.RunOpts) { o.Ctx = ctx }
}

// Deprecated: WithWorkers has no effect (one stepper); removed with ROADMAP item 1.
func WithWorkers(n int) RunOption {
	return func(o *gpu.RunOpts) { o.Workers = n }
}

// Run executes workload w on cfg and returns the run statistics. Invalid
// configurations and workloads come back as errors; no panic escapes to the
// caller. Options attach fault plans, observers and cancellation:
//
//	st, err := sac.Run(cfg, spec,
//	    sac.WithObserver(obs),
//	    sac.WithContext(ctx))
func Run(cfg Config, w Workload, opts ...RunOption) (st *Stats, err error) {
	defer guard(&err)
	var o gpu.RunOpts
	for _, opt := range opts {
		opt(&o)
	}
	st, err = backend.Run(cfg, w, o)
	if err != nil && o.Ctx != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		err = &CellError{Benchmark: w.SourceName(), Org: cfg.Org.String(), Err: err}
	}
	return st, err
}

// System is a constructed simulator instance; use it instead of Run to
// inspect state (mode, SAC decisions) after execution.
type System = gpu.System

// NewSystem builds a simulator without running it.
func NewSystem(cfg Config, spec Spec) (s *System, err error) {
	defer guard(&err)
	return gpu.New(cfg, spec)
}

// Fault injection — deterministic degradation of links, DRAM channels, LLC
// slices, and NoC ports at exact cycles (DESIGN.md "Fault model").

// FaultPlan is a seeded, serializable schedule of fault events. Plans are
// part of the simulation key: the same (config, workload, plan) triple is
// bit-identical at any parallelism.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled degradation of one unit.
type FaultEvent = fault.Event

// FaultDomain selects which hardware domain an event degrades.
type FaultDomain = fault.Domain

// The injectable fault domains.
const (
	FaultXChip = fault.XChip // inter-chip ring links
	FaultDRAM  = fault.DRAM  // DRAM channels
	FaultLLC   = fault.LLC   // LLC slice ways
	FaultNoC   = fault.NoC   // intra-chip NoC ingress ports
)

// ParseFaultPlan parses the compact fault DSL, e.g.
// "xchip:0.cw@2000-30000*0.5; dram:1.0@1000*0".
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.Parse(s) }

// LoadFaultPlan reads a JSON fault plan from a file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.Load(path) }

// GenerateFaultPlan draws a reproducible random plan for cfg's shape: n
// events over the first horizon cycles, fully determined by seed.
func GenerateFaultPlan(cfg Config, seed int64, n int, horizon int64) *FaultPlan {
	return fault.Generate(seed, cfg.FaultShape(), n, horizon)
}

// StallError reports a watchdog abort: no request retired within
// Config.WatchdogCycles. It carries a queue-occupancy dump for diagnosis.
type StallError = gpu.StallError

// CellError is the structured failure of one sweep cell (simulation error
// or contained panic); Runner.RunAll joins one per distinct failed cell.
type CellError = eval.CellError

// Observability — a live metrics registry plus a Chrome-trace event tracer,
// attachable to any Run via WithObserver (DESIGN.md "Observability"). With
// no observer attached the simulator's hot path is allocation-free and pays
// one nil check per guarded site.

// Observer bundles the two observability sinks. Either field may be nil to
// enable only the other.
type Observer = obs.Observer

// MetricsRegistry is a set of named counter/gauge series, exportable as
// Prometheus text exposition (version 0.0.4) or JSON. Safe for concurrent
// scraping while a simulation writes.
type MetricsRegistry = obs.Registry

// Tracer records trace events in Chrome trace_event JSON; its output opens
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing. Trace
// timestamps are simulated cycles interpreted as microseconds.
type Tracer = obs.Tracer

// NewObserver returns an Observer with a fresh registry and tracer sampling
// every window cycles (0 = the default window of obs.DefaultWindow cycles).
func NewObserver(window int64) *Observer { return obs.New(window) }

// MetricsHandler serves a registry over HTTP: GET /metrics (Prometheus) and
// GET /metrics.json.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// Speedup returns a's performance relative to b (ratio of IPC).
func Speedup(a, b *Stats) float64 { return stats.Speedup(a, b) }

// HarmonicMean aggregates speedups the way the paper reports averages.
func HarmonicMean(speedups []float64) float64 { return stats.HarmonicMeanSpeedup(speedups) }

// Runner executes the paper's experiments (one method per table/figure).
// Simulations are memoized across experiments and run concurrently up to
// Runner.Parallelism (0 = all cores); each simulation is single-threaded
// and deterministic, so results are bit-identical at any parallelism.
type Runner = eval.Runner

// RunRequest names one (configuration, workload) simulation for
// Runner.Prefetch / Runner.RunAll.
type RunRequest = eval.RunRequest

// CellResult is the per-cell progress record passed to Runner.OnCellDone.
type CellResult = eval.CellResult

// NewRunner returns a Runner over ScaledConfig and all 16 benchmarks.
func NewRunner() *Runner { return eval.NewRunner() }

// ResultCache is a persistent content-addressed result store: each
// simulation's statistics are filed under a hash of (configuration,
// benchmark, fault plan), so identical cells are simulated once across
// processes and machine reboots. Attach one to Runner.Store, point
// `sacsweep -cache-dir` at it, or serve it with the sacd daemon — all
// three share the same on-disk format and key derivation.
type ResultCache = store.Store

// OpenResultCache opens (or creates) a result cache rooted at dir.
// maxBytes > 0 bounds the cache: least-recently-used entries are evicted
// past the limit; 0 means unbounded.
func OpenResultCache(dir string, maxBytes int64) (*ResultCache, error) {
	return store.Open(dir, store.Options{MaxBytes: maxBytes})
}

// CacheKeyAt returns the content address a simulation cell is filed under
// in a ResultCache (and reported as "key" by the sacd API). Any difference
// in configuration, benchmark, fault plan or fidelity rung yields a
// different key, except that "" and FidelityExact address the same keys
// (exact results keep their pre-ladder addresses): estimate and sampled
// results can never alias an exact one.
func CacheKeyAt(cfg Config, benchmark string, plan *FaultPlan, f Fidelity) string {
	return store.KeyAt(cfg, benchmark, plan.Key(), string(f))
}

// FastSet is a representative 6-benchmark subset for expensive sweeps.
func FastSet() []string { return eval.FastSet() }

// Axis identifies a Figure 14 design-space dimension.
type Axis = eval.Axis

// The Figure 14 sweep axes.
const (
	AxisInterChipBW = eval.AxisInterChipBW
	AxisLLCCapacity = eval.AxisLLCCapacity
	AxisMemory      = eval.AxisMemory
	AxisCoherence   = eval.AxisCoherence
	AxisGPUCount    = eval.AxisGPUCount
	AxisSectored    = eval.AxisSectored
	AxisPageSize    = eval.AxisPageSize
)

// EAB model surface — the paper's analytical contribution (§3.3), usable
// standalone: compute effective available bandwidth for both organizations
// from architecture parameters and profiled workload inputs.

// ArchParams are the architecture-only EAB inputs (Table 2).
type ArchParams = core.ArchParams

// WorkloadInputs are the profiled workload-dependent EAB inputs.
type WorkloadInputs = core.WorkloadInputs

// EABDecision is the outcome of comparing both organizations' EABs.
type EABDecision = core.Decision

// DecideEAB evaluates the EAB model with threshold theta (the paper's
// default is 0.05) and returns which organization it selects.
func DecideEAB(a ArchParams, w WorkloadInputs, theta float64) EABDecision {
	return core.Decide(a, w, theta)
}

// LSU computes the LLC slice uniformity metric from per-slice request
// counters (§3.3).
func LSU(requests []int64) float64 { return core.LSU(requests) }

// HardwareBudget reports SAC's per-chip counter hardware cost (§3.6); with
// the paper's parameters it returns 620 bytes (conventional caches) or 812
// bytes (sectored).
func HardwareBudget(sectored bool) core.Budget {
	sectors := 1
	if sectored {
		sectors = 4
	}
	return core.HardwareBudget(8, 16, 30, 4, sectors, 16)
}

// NoCCost compares the NoC area/power of the three implementable
// organizations (the paper's DSENT/CACTI numbers, §2.1 and §3.6).
func NoCCost() noccost.Report {
	return noccost.Compare(noccost.PaperShape(), noccost.Tech22())
}

// WorkingSets runs the Figure 11 working-set analysis for one workload:
// unique bytes touched per window, classified truly/falsely/non-shared.
func WorkingSets(cfg Config, spec Spec, windows []int64) (profile.Result, error) {
	an, err := profile.New(cfg.Machine(), windows, 32)
	if err != nil {
		return profile.Result{}, err
	}
	return an.Analyze(spec)
}
