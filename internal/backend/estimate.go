package backend

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// estimateMaxProfiled caps the raw accesses replayed per unique kernel.
// The nominal budget is one SAC profiling window of gapless issue
// (WindowCycles x issue width, the same cycle convention internal/profile
// uses), but long windows on wide machines would push the replay into
// hundreds of thousands of accesses per kernel; the counter architecture's
// inputs converge long before that, so the cap keeps the rung in the
// microseconds-to-low-milliseconds band its callers (the sacd synchronous
// accept path, design-space sweeps) are promised. On the paper-scale
// machine (2048 warps) the round-robin replay under this cap advances each
// warp ~16 accesses — inside the depth plateau the warp-step calibration
// found stable (see defaultEstimateWarpSteps).
const estimateMaxProfiled = 1 << 15

// estimateWarpSteps caps the accesses replayed per warp per kernel (0 =
// unbounded). The real profiling window is latency-bound: each warp advances
// only a handful of accesses before the window closes, so the window samples
// the workload broadly (every warp's opening accesses) rather than deeply
// (one warp's whole stream). Capping replay depth per warp reproduces that
// breadth-first sample. Variable for calibration tests; the default is the
// shipped value.
//
// Calibrated against the cycle-exact engine on the 16 Table-4 workloads
// (TestCalibrateEstimateWarpSteps): depths 16 and 32 reproduce the exact SAC
// decision 16/16; depths >=64 (and unbounded replay) flip BP to SM-side,
// and depths <=8 starve BS of samples. 32 ships: the deepest calibrated
// depth that stays faithful, so each warp contributes the most samples it
// can.
const defaultEstimateWarpSteps = 32

var estimateWarpSteps int64 = defaultEstimateWarpSteps

// estimateBurst is how many accesses one warp advances per replay visit.
// Bursting amortizes the page-table and L1-model locality a warp's stream
// naturally has; it stays well under the per-warp depth cap so the replay
// is still a breadth-first sample of every warp.
const estimateBurst = 8

// cursor is one warp's place in the replay.
type cursor struct {
	stream workload.AccessStream
	steps  int64
	chip   int
	gsm    int // global SM index for the per-SM L1 filter
}

// replayShape is what sizes a replay scratch: the machine, its cache
// geometry and its counter architecture.
type replayShape struct {
	warps, sms, l1Sets, l1Ways int
	chips, slicesPerChip       int
	llcSets, llcWays           int
	lineBytes                  int
	crd                        core.CRDConfig
}

// replayScratch is the per-call working set of profile — the cache models, the
// profiler, a Spec's warp streams, the warp cursors and the kernel profiles —
// reused across calls through a pool per shape. Every call starts it from
// the state a fresh allocation has: the LLC models are flushed on entry, the
// L1s and the profiler at every kernel (a reset profiler is a fresh one,
// FuzzProfilerReset), the streams, cursors and profiles are rebuilt.
type replayScratch struct {
	l1      []cache.Cache
	llc     []cache.Cache
	prof    *core.Profiler
	streams []workload.Stream
	cursors []cursor
	kps     []kernelProfile
}

// scratches pools replay scratches by replayShape.
var scratches gpu.ShapePools[replayShape, *replayScratch]

// takeScratch takes a scratch of cfg's shape from its pool, built when the
// pool has none; the caller hands it back with giveScratch once nothing
// reads its kernel profiles.
func takeScratch(cfg gpu.Config) (replayShape, *replayScratch) {
	m := cfg.Machine()
	modelSets, _ := llcSampling(cfg)
	sh := replayShape{
		warps: m.TotalWarps(), sms: m.Chips * m.SMsPerChip,
		l1Sets: cfg.L1BytesPerSM / (cfg.Geom.LineBytes * cfg.L1Ways), l1Ways: cfg.L1Ways,
		chips: cfg.Chips, slicesPerChip: cfg.SlicesPerChip, llcSets: modelSets, llcWays: cfg.LLCWays,
		lineBytes: cfg.Geom.LineBytes, crd: cfg.CRDConfig(),
	}
	sc, ok := scratches.Get(sh)
	if !ok {
		sc = &replayScratch{
			l1:      cache.NewN(sh.sms, cache.Config{Sets: sh.l1Sets, Ways: sh.l1Ways, LineBytes: sh.lineBytes}),
			llc:     cache.NewN(sh.chips*sh.slicesPerChip, cache.Config{Sets: sh.llcSets, Ways: sh.llcWays, LineBytes: sh.lineBytes}),
			prof:    core.NewProfiler(sh.chips, sh.slicesPerChip, sh.crd),
			cursors: make([]cursor, 0, sh.warps),
		}
	}
	return sh, sc
}

func giveScratch(sh replayShape, sc *replayScratch) {
	clear(sc.cursors) // drop stream references before pooling
	scratches.Put(sh, sc)
}

// kernelProfile is one unique kernel's profiled window: what the replay
// measured, before any organization, bandwidth or threshold prices it.
type kernelProfile struct {
	replayed   int64 // raw accesses replayed (pre-L1)
	llcAcc     int64 // accesses that reached the LLC model (post-L1)
	writes     int64 // raw write accesses in the window
	ops        int64 // full per-invocation op count, from the stream lengths
	llcLookups int64 // sampled-set LLC probes
	llcHits    int64 // sampled-set LLC hits
	samples    int64 // accesses the profiler recorded (the core.MinSamples guard)
	// inputs are the profiler's, with the memory-side hit rate taken from
	// the set-sampled model; the DisableLSU override is synthesize's.
	inputs core.WorkloadInputs
}

// llcSampleShift set-samples the memory-side LLC model: only lines in a
// deterministic 1-in-2^shift hash sample are probed, against a model with
// the set count shrunk by the same factor (per-set geometry kept, so each
// modeled set behaves like a sampled set of the real cache). The same
// technique the paper's CRD uses for the SM-side estimate, applied to the
// memory-side one; the sampled hit rate replaces the profiler's full-count
// one. Sampling turns off on tiny caches, where the model is cheap anyway
// and the sample would be too thin.
const llcSampleShift = 3

// llcSampleMinSets gates the sampling: below this many sets per slice the
// shrunk model would be a handful of sets and the line sample a sliver of
// the replay. Both realistic presets (paper 128 sets/slice, scaled 64)
// clear it, so the rung's benchmarked cost includes the sampler.
const llcSampleMinSets = 64

// llcSampling returns the set count per slice of cfg's memory-side LLC
// model and the line-hash mask that selects its sample (0: every line is
// probed).
func llcSampling(cfg gpu.Config) (sets int, sampleMask uint64) {
	sets = cfg.LLCBytesPerChip / cfg.Geom.LineBytes / cfg.SlicesPerChip / cfg.LLCWays
	if sets >= llcSampleMinSets {
		return sets >> llcSampleShift, 1<<llcSampleShift - 1
	}
	return sets, 0
}

// runEstimate is the closed-form rung: profile a stream prefix through
// tag-only cache models, then synthesize a Stats from the analytical
// bandwidths of both organizations' EABs. No cycle loop runs. The profile is
// read out of the pooled scratch, so a call allocates no more than the
// replay and the run record need.
func runEstimate(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	if err := checkEstimate(cfg, o); err != nil {
		return nil, err
	}
	sh, sc := takeScratch(cfg)
	defer giveScratch(sh, sc)
	kps, err := profile(cfg, w, o, sc)
	if err != nil {
		return nil, err
	}
	return synthesize(cfg, w, kps), nil
}

// checkEstimate is what every estimate cell checks for itself before it
// profiles, or reuses a run-set mate's profile: a valid configuration and no
// fault plan.
func checkEstimate(cfg gpu.Config, o gpu.RunOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !o.Faults.Empty() {
		return fmt.Errorf("backend: fidelity %q cannot apply a fault plan; use %q", Estimate, Exact)
	}
	return nil
}

// profileKeyOf is the key a RunSet shares profiles under: cfg with the
// replay-invariant set zeroed, and the workload's name.
//
// The replay-invariant set is the fields of gpu.Config that profile never
// reads, so configurations differing only in them replay identically:
//
//   - Org, ClusterBW, SliceBW, RingLinkBW, ChannelBW, SMsPerCluster and
//     SACOpts.{Theta, DisableLSU}: synthesize prices them (the EAB model's
//     architecture inputs, the θ comparison, the LSU ablation, the org's
//     side);
//   - L1Latency, LLCLatency, DRAMLatency, RingHopLatency, Coherence,
//     SACOpts.ReprofileEvery, DynamicEpoch, MSHRPerSlice, QueueBound,
//     MaxCycles and WatchdogCycles: only the cycle-exact engine reads them.
//
// ChannelsPerChip stays out: the replay builds its PAE mapper from it,
// though the slice hash, the mapper's one call here, does not read it
// today. TestProfileInvariantFields perturbs each field of the set, requires
// byte-identical profile output, and requires this key to zero exactly the
// set; it is the authority over this list.
func profileKeyOf(cfg gpu.Config, name string) profileKey {
	cfg.Org = 0
	cfg.ClusterBW, cfg.SliceBW, cfg.RingLinkBW, cfg.ChannelBW = 0, 0, 0, 0
	cfg.SMsPerCluster = 0
	cfg.SACOpts.Theta, cfg.SACOpts.DisableLSU = 0, false
	cfg.L1Latency, cfg.LLCLatency, cfg.DRAMLatency, cfg.RingHopLatency = 0, 0, 0, 0
	cfg.Coherence = 0
	cfg.SACOpts.ReprofileEvery = 0
	cfg.DynamicEpoch, cfg.MSHRPerSlice, cfg.QueueBound = 0, 0, 0
	cfg.MaxCycles, cfg.WatchdogCycles = 0, 0
	return profileKey{cfg: cfg, name: name}
}

// profileKey names one replay: a configuration with its replay-invariant
// fields zeroed, and the workload's name.
type profileKey struct {
	cfg  gpu.Config
	name string
}

// profile replays a bounded stream prefix of every unique kernel of w on
// cfg's machine through tag-only cache models and the counter architecture,
// and returns one kernelProfile per unique kernel, held in sc. It reads no
// field of the replay-invariant set (profileKeyOf) and assumes checkEstimate
// passed.
func profile(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts, sc *replayScratch) ([]kernelProfile, error) {
	m := cfg.Machine()
	issueWidth := int64(m.Chips * m.SMsPerChip)
	sectors := cfg.SectorCount()

	// The profiled window in replay steps: the same cycle convention as
	// internal/profile (gapless round-robin, one access per warp per step,
	// cycle = step / issue width), bounded by the global cap.
	maxSteps := cfg.SACOpts.WithDefaults().WindowCycles * issueWidth
	if maxSteps > estimateMaxProfiled {
		maxSteps = estimateMaxProfiled
	}

	// Only unique kernels are profiled: invocation ki of a Spec replays
	// kernel ki % len(Kernels) with a different stream salt but the same
	// layout, so its profile — and therefore its decision — is shared.
	uniq := w.KernelCount()
	spec, isSpec := w.(workload.Spec)
	if isSpec && len(spec.Kernels) > 0 && len(spec.Kernels) < uniq {
		uniq = len(spec.Kernels)
	}

	// Shared address-translation state, persistent across kernels exactly
	// like the simulator's, and the same types: first-touch page placement
	// and the PAE slice hash. The LLC model persists too (lines survive
	// kernel boundaries); the L1 filters reset per kernel (kernel launch
	// cold-starts the L1s).
	pae := addr.NewPAE(cfg.SlicesPerChip, cfg.ChannelsPerChip)
	pages := addr.NewPageTable(cfg.Geom, cfg.Chips)
	_, sampleMask := llcSampling(cfg)

	// The cache models, the profiler, streams, cursors and profiles come
	// from the scratch, so a warm call allocates none of them. The L1 filters
	// and the profiler are reset per kernel (a kernel launch cold-starts the
	// L1s and opens a profiling window); the LLC models persist across
	// kernels, so they are flushed here.
	l1, llcModel, prof := sc.l1, sc.llc, sc.prof
	for i := range llcModel {
		llcModel[i].FlushAll()
	}
	if cap(sc.kps) < uniq {
		sc.kps = make([]kernelProfile, uniq)
	}
	kps := sc.kps[:uniq]
	clear(kps)

	for ki := 0; ki < uniq; ki++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("backend: estimate canceled: %w", err)
			}
		}
		prof.Reset()
		for i := range l1 {
			l1[i].FlushAll()
		}
		kp := &kps[ki]
		// A Spec builds the kernel's streams into the scratch's storage in
		// one call; any other workload hands out its own.
		if isSpec {
			sc.streams = spec.AppendStreams(sc.streams[:0], m, ki)
		}
		cursors := sc.cursors[:0]
		for chip := 0; chip < m.Chips; chip++ {
			for smi := 0; smi < m.SMsPerChip; smi++ {
				for warp := 0; warp < m.WarpsPerSM; warp++ {
					var s workload.AccessStream
					if isSpec {
						s = &sc.streams[len(cursors)]
					} else {
						s = w.Stream(m, ki, chip, smi, warp)
					}
					// Stream lengths are salt-independent, so invocation
					// ki+n*uniq has exactly this op count too — record it here
					// and the synthesis loop never rebuilds a stream.
					kp.ops += s.Len()
					cursors = append(cursors, cursor{
						stream: s,
						chip:   chip,
						gsm:    chip*m.SMsPerChip + smi,
					})
				}
			}
		}
		sc.cursors = cursors
		live := true
		for live && kp.replayed < maxSteps {
			live = false
			for i := range cursors {
				c := &cursors[i]
				// Bursts of a few accesses per warp visit keep the replay
				// breadth-first (every warp advances every round) while giving
				// the page-table memo and the L1 model the access locality
				// the per-warp streams actually have — under strict one-access
				// round-robin every page lookup misses the memo.
				for b := int64(0); b < estimateBurst; b++ {
					if estimateWarpSteps > 0 && c.steps >= estimateWarpSteps {
						break
					}
					acc, ok := c.stream.Next()
					if !ok {
						break
					}
					live = true
					c.steps++
					kp.replayed++
					// Mirror the SM's L1 semantics: stores are write-through and
					// no-allocate (every one reaches the LLC, none installs in the
					// L1); loads filter through the L1 and install on miss.
					if acc.Kind != memsys.Write && l1[c.gsm].Access(acc.Line, 0, cache.PartAll, false) {
						continue // load filtered by the L1, never reaches the LLC
					}
					if acc.Kind == memsys.Write {
						kp.writes++
					}
					home := pages.Touch(acc.Line, c.chip)
					si := pae.Slice(acc.Line)
					sector := sm.ChipSector(acc.Line, c.chip, sectors)
					// Probe the set-sampled memory-side model only for lines in
					// the hash sample; the hit flag fed to the profiler is
					// overridden below by the sampled rate, so unsampled lines
					// recording "miss" never reaches a decision.
					hit := false
					if sampleMask == 0 || addr.Mix64(acc.Line)>>48&sampleMask == 0 {
						hit = llcModel[home*cfg.SlicesPerChip+si].Access(acc.Line, 0, cache.PartAll, false)
						kp.llcLookups++
						if hit {
							kp.llcHits++
						}
					}
					prof.Record(acc.Line, sector, c.chip, home, si, hit)
					kp.llcAcc++
				}
				if kp.replayed >= maxSteps {
					break
				}
			}
		}
		kp.samples = prof.Samples()
		kp.inputs = prof.Inputs()
		// The memory-side hit rate comes from the set-sampled model's own
		// counters (the profiler's full-population counters saw "miss" for
		// every unsampled line).
		kp.inputs.MemSide.LLCHit = 0
		if kp.llcLookups > 0 {
			kp.inputs.MemSide.LLCHit = float64(kp.llcHits) / float64(kp.llcLookups)
		}
	}
	return kps, nil
}

// synthesize prices a profile under cfg and writes the run record: each
// kernel's EAB decision, under cfg's bandwidths, θ and LSU setting, and the
// analytical model's cycles and counters. Every cycle figure is an estimate:
// the bandwidth-bound term divides the predicted post-L1 traffic by the
// chosen organization's EAB, the issue-bound term assumes each SM retires at
// most one memory op per cycle; the larger of the two bounds each kernel.
// kps holds one profile per unique kernel; invocation ki reads kps[ki %
// len(kps)]. synthesize never writes kps, so run-set mates share one.
func synthesize(cfg gpu.Config, w gpu.Workload, kps []kernelProfile) *stats.Run {
	opts := cfg.SACOpts.WithDefaults()
	arch := cfg.ArchParams()
	issueWidth := int64(cfg.Chips * cfg.SMsPerChip)
	lineBytes := float64(cfg.Geom.LineBytes)
	total := w.KernelCount()

	run := &stats.Run{
		Benchmark: w.SourceName(),
		Org:       cfg.Org.String(),
		Fidelity:  Estimate,
	}
	if total > 0 {
		run.Kernels = make([]stats.KernelRec, 0, total)
	}
	for ki := 0; ki < total; ki++ {
		kp := &kps[ki%len(kps)]
		in := kp.inputs
		if opts.DisableLSU {
			in.MemSide.LSU = 1
			in.SMSide.LSU = 1
		}
		d := core.Decide(arch, in, opts.Theta)
		if kp.samples < core.MinSamples {
			// Mirror the exact controller: too little traffic to trust the
			// model, stay memory-side.
			d.PickSM = false
		}
		ops := kp.ops
		missFrac, writeFrac := 0.0, 0.0
		if kp.replayed > 0 {
			missFrac = float64(kp.llcAcc) / float64(kp.replayed)
			writeFrac = float64(kp.writes) / float64(kp.replayed)
		}
		eab, hitRate := orgEAB(cfg.Org, d, in)
		llcOps := math.Round(float64(ops) * missFrac)
		bwCycles := llcOps * lineBytes / eab
		issueCycles := float64(ops) / float64(issueWidth)
		kCycles := int64(math.Ceil(math.Max(bwCycles, issueCycles)))
		if kCycles < 1 {
			kCycles = 1
		}

		hits := int64(math.Round(llcOps * hitRate))
		misses := int64(llcOps) - hits
		writes := int64(math.Round(float64(ops) * writeFrac))
		run.MemOps += ops
		run.Writes += writes
		run.Reads += ops - writes
		run.L1Misses += int64(llcOps)
		run.L1Hits += ops - int64(llcOps)
		run.LLCHits += hits
		run.LLCMisses += misses
		run.DRAMBytes += misses * int64(lineBytes)
		// Ring traffic estimate: under memory-side routing every remote-homed
		// LLC access crosses the ring; under SM-side only misses do (hits are
		// served from the local replica). SAC routes the side it picks; Static
		// and Dynamic, outside the rung's coverage, are charged by the same
		// decision.
		remote := 1 - in.RLocal
		if cfg.Org == llc.SMSide || cfg.Org != llc.MemorySide && d.PickSM {
			run.RingBytes += int64(math.Round(float64(misses)*remote)) * int64(lineBytes)
		} else {
			run.RingBytes += int64(math.Round(llcOps*remote)) * int64(lineBytes)
		}
		run.Cycles += kCycles
		run.Kernels = append(run.Kernels, stats.KernelRec{
			Index:  ki,
			Name:   w.KernelName(ki),
			Org:    kernelOrgString(cfg.Org, d.PickSM),
			Cycles: kCycles,
			MemOps: ops,
		})
	}
	if run.Cycles < 1 {
		run.Cycles = 1
	}
	return run
}

// orgEAB returns the effective aggregate bandwidth (bytes/cycle) and the
// predicted LLC hit rate of the configuration the organization runs the
// kernel under. SAC uses the chosen side. Static and Dynamic are outside the
// rung's coverage (Covers): their max of both sides is an oracle, priced only
// because bench/'s estimate universe submits static here (ROADMAP item 1).
func orgEAB(org llc.Org, d core.Decision, in core.WorkloadInputs) (eab, hitRate float64) {
	mem := d.MemSide.Total
	smSide := d.SMSide.Total
	switch org {
	case llc.MemorySide:
		return mem, in.MemSide.LLCHit
	case llc.SMSide:
		return smSide, in.SMSide.LLCHit
	case llc.SAC:
		if d.PickSM {
			return smSide, in.SMSide.LLCHit
		}
		return mem, in.MemSide.LLCHit
	default: // Static, Dynamic: hybrid
		return math.Max(mem, smSide), math.Max(in.MemSide.LLCHit, in.SMSide.LLCHit)
	}
}

// kernelOrgString renders the per-kernel routing mode the way the exact
// engine records it in KernelRec.Org (llc.Mode strings), so cross-fidelity
// comparisons read the same field the same way.
func kernelOrgString(org llc.Org, pickSM bool) string {
	if org == llc.SAC {
		if pickSM {
			return llc.ModeSMSide.String()
		}
		return llc.ModeMemorySide.String()
	}
	return org.InitialMode().String()
}
