package backend

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/addr"
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
// (one warp's whole stream). A depth-heavy replay sees intra-warp temporal
// reuse the real window never observes and overestimates the CRD's SM-side
// hit rate; capping replay depth per warp reproduces the breadth-first
// sample. Variable for calibration tests; the default is the shipped value.
//
// Calibrated against the cycle-exact engine on the 16 Table-4 workloads
// (TestCalibrateEstimateWarpSteps): depths 16 and 32 reproduce the exact SAC
// decision 16/16; depths >=64 (and unbounded replay) flip blocked/tiled
// workloads (SRAD, GEMM, STEN, BP, DWT, NN) to SM-side on intra-warp
// temporal reuse the real latency-bound window never observes, and depths
// <=8 starve BS of samples. 32 ships: the deepest calibrated depth that
// stays faithful, so each warp contributes the most samples it can.
const defaultEstimateWarpSteps = 32

var estimateWarpSteps int64 = defaultEstimateWarpSteps

// estimateBurst is how many accesses one warp advances per replay visit.
// Bursting amortizes the page-table and tag-model locality a warp's stream
// naturally has; it stays well under the per-warp depth cap so the replay
// is still a breadth-first sample of every warp.
const estimateBurst = 8

// tagCache is a tag-only LRU set-associative cache: it answers hit/miss and
// models capacity and conflict behaviour, but holds no data, latencies or
// MSHRs. Both the L1 filter and the memory-side LLC model of the estimate
// rung are built from it. Tag and recency interleave in one 8-byte entry so
// a set probe walks contiguous memory: the tag is the high 32 bits of the
// line hash (the set index uses the low bits, so together they retain 32+
// distinguishing bits; a residual alias needs two lines agreeing on all 64
// hash bits' relevant parts, ~2^-32 per way-compare — deterministic and far
// below the rung's set-sampling noise), and recency is a 32-bit tick, ample
// for the bounded replay. Power-of-two set counts (the usual case for both
// caches) index with a mask instead of a per-access divide — layout-only
// tuning; hit/miss behaviour is plain LRU either way.
type tagEntry struct {
	tag  uint32 // high 32 bits of Mix64(line); valid iff tick != 0
	tick uint32
}

type tagCache struct {
	ents []tagEntry
	sets int
	mask int // sets-1 when sets is a power of two, else -1
	ways int
	now  uint32
}

// newTagCaches returns n empty caches of one geometry, carved out of one
// backing array.
func newTagCaches(n, sets, ways int) []tagCache {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	// Reshape wide caches to 4-way at identical capacity: every probe LRU-
	// scans its whole set, so 16-way sets cost 4x the compares of 4-way ones,
	// and under the Mix64 set hash the extra associativity changes conflict
	// behaviour only marginally (calibration stays 16/16, see
	// TestCalibrateEstimateWarpSteps). Power-of-two inputs stay power-of-two.
	for ways > 4 && ways%2 == 0 {
		ways /= 2
		sets *= 2
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	size := sets * ways
	ents := make([]tagEntry, n*size)
	cs := make([]tagCache, n)
	for i := range cs {
		cs[i] = tagCache{ents: ents[i*size : (i+1)*size : (i+1)*size], sets: sets, mask: mask, ways: ways}
	}
	return cs
}

// access touches the line whose hash is h (Mix64(line), which the caller
// has already computed for its other uses), returning whether it hit; on a
// miss the LRU way of the set is replaced.
func (c *tagCache) access(h uint64) bool {
	var set int
	if c.mask >= 0 {
		set = int(h) & c.mask
	} else {
		set = int(h % uint64(c.sets))
	}
	key := uint32(h >> 32)
	c.now++
	ents := c.ents[set*c.ways : set*c.ways+c.ways]
	empty, lru := -1, -1
	for i := range ents {
		switch {
		case ents[i].tick == 0:
			if empty < 0 {
				empty = i
			}
		case ents[i].tag == key:
			ents[i].tick = c.now
			return true
		case lru < 0 || ents[i].tick < ents[lru].tick:
			lru = i
		}
	}
	victim := empty
	if victim < 0 {
		victim = lru
	}
	ents[victim] = tagEntry{tag: key, tick: c.now}
	return false
}

// reset invalidates every entry without touching the backing array, so a
// per-kernel cold start costs no allocation.
func (c *tagCache) reset() {
	clear(c.ents)
	c.now = 0
}

// cursor is one warp's place in the replay.
type cursor struct {
	stream workload.AccessStream
	steps  int64
	chip   int
	gsm    int // global SM index for the per-SM L1 filter
}

// replayShape is what sizes a replay scratch: the machine and its cache
// geometry.
type replayShape struct {
	warps, sms, l1Sets, l1Ways, slices, llcSets, llcWays int
}

// replayScratch is the per-call working set of runEstimate — the tag models,
// a Spec's warp streams, the warp cursors and the kernel estimates — reused
// across calls through a pool per shape. Every call starts it from the state
// a fresh allocation has: the LLC models are cleared on entry, the L1s at
// every kernel, the streams, cursors and estimates are rebuilt. The profiler
// is not part of it: core.CRD.Reset keeps each way's LRU stamp
// (TestCRDResetKeepsVictimStamps), so a reused profiler would not start
// where a fresh one does.
type replayScratch struct {
	l1      []tagCache
	llc     []tagCache
	streams []workload.Stream
	cursors []cursor
	kes     []kernelEstimate
}

var scratchPools struct {
	byShape map[replayShape]*sync.Pool
	sync.Mutex
}

// scratchPool returns the pool of scratches of one shape.
func scratchPool(sh replayShape) *sync.Pool {
	scratchPools.Lock()
	defer scratchPools.Unlock()
	p := scratchPools.byShape[sh]
	if p == nil {
		if scratchPools.byShape == nil {
			scratchPools.byShape = make(map[replayShape]*sync.Pool)
		}
		p = &sync.Pool{New: func() any {
			return &replayScratch{
				l1:      newTagCaches(sh.sms, sh.l1Sets, sh.l1Ways),
				llc:     newTagCaches(sh.slices, sh.llcSets, sh.llcWays),
				cursors: make([]cursor, 0, sh.warps),
			}
		}}
		scratchPools.byShape[sh] = p
	}
	return p
}

// kernelEstimate is one unique kernel's profiled window.
type kernelEstimate struct {
	replayed   int64 // raw accesses replayed (pre-L1)
	llcAcc     int64 // accesses that reached the LLC model (post-L1)
	writes     int64 // raw write accesses in the window
	ops        int64 // full per-invocation op count, from the stream lengths
	llcLookups int64 // sampled-set LLC probes
	llcHits    int64 // sampled-set LLC hits
	inputs     core.WorkloadInputs
	decision   core.Decision
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

// runEstimate is the closed-form rung: profile a stream prefix through
// tag-only cache models, evaluate both organizations' EABs, synthesize a
// Stats from the analytical bandwidths. No cycle loop runs.
func runEstimate(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !o.Faults.Empty() {
		return nil, fmt.Errorf("backend: fidelity %q cannot apply a fault plan; use %q or %q", Estimate, Sampled, Exact)
	}
	m := cfg.Machine()
	if err := gpu.CheckMachine(w, m); err != nil {
		return nil, err
	}

	opts := cfg.SACOpts.WithDefaults()
	arch := cfg.ArchParams()
	issueWidth := int64(m.Chips * m.SMsPerChip)
	lineBytes := float64(cfg.Geom.LineBytes)
	sectors := cfg.SectorCount()

	// The profiled window in replay steps: the same cycle convention as
	// internal/profile (gapless round-robin, one access per warp per step,
	// cycle = step / issue width), bounded by the global cap.
	maxSteps := opts.WindowCycles * issueWidth
	if maxSteps > estimateMaxProfiled {
		maxSteps = estimateMaxProfiled
	}

	// Only unique kernels are profiled: invocation ki of a Spec replays
	// kernel ki % len(Kernels) with a different stream salt but the same
	// layout, so its profile — and therefore its decision — is shared.
	total := w.KernelCount()
	uniq := total
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
	llcSets := cfg.LLCBytesPerChip / cfg.Geom.LineBytes / cfg.SlicesPerChip / cfg.LLCWays
	modelSets, sampleMask := llcSets, uint64(0)
	if llcSets >= llcSampleMinSets {
		modelSets = llcSets >> llcSampleShift
		sampleMask = 1<<llcSampleShift - 1
	}
	prof := core.NewProfiler(cfg.Chips, cfg.SlicesPerChip, cfg.CRDConfig())

	// The tag models (~90 KB at ScaledConfig), streams, cursors and
	// estimates come from a pool, so a warm call allocates none of them. The
	// L1 filters are tag-cleared per kernel (a kernel launch cold-starts the
	// L1s); the LLC models persist across kernels, so they are cleared here.
	pool := scratchPool(replayShape{
		warps: m.TotalWarps(), sms: m.Chips * m.SMsPerChip,
		l1Sets: cfg.L1BytesPerSM / (cfg.Geom.LineBytes * cfg.L1Ways), l1Ways: cfg.L1Ways,
		slices: cfg.Chips * cfg.SlicesPerChip, llcSets: modelSets, llcWays: cfg.LLCWays,
	})
	sc := pool.Get().(*replayScratch)
	defer func() {
		clear(sc.cursors) // drop stream references before pooling
		pool.Put(sc)
	}()
	l1, llcModel := sc.l1, sc.llc
	for i := range llcModel {
		llcModel[i].reset()
	}
	if cap(sc.kes) < uniq {
		sc.kes = make([]kernelEstimate, uniq)
	}
	kes := sc.kes[:uniq]
	clear(kes)

	for ki := 0; ki < uniq; ki++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("backend: estimate canceled: %w", err)
			}
		}
		prof.Reset()
		for i := range l1 {
			l1[i].reset()
		}
		ke := &kes[ki]
		// A Spec builds the kernel's streams into the scratch's storage in
		// one call; any other workload (a trace replay) hands out its own.
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
					ke.ops += s.Len()
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
		for live && ke.replayed < maxSteps {
			live = false
			for i := range cursors {
				c := &cursors[i]
				// Bursts of a few accesses per warp visit keep the replay
				// breadth-first (every warp advances every round) while giving
				// the page-table memo and the L1 tag model the access locality
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
					ke.replayed++
					// One line hash serves the L1 set index, the LLC sample
					// check and the LLC set index — they all consumed the same
					// Mix64(line) value when computed separately.
					lh := addr.Mix64(acc.Line)
					// Mirror the SM's L1 semantics: stores are write-through and
					// no-allocate (every one reaches the LLC, none installs in the
					// L1); loads filter through the L1 and install on miss.
					if acc.Kind != memsys.Write && l1[c.gsm].access(lh) {
						continue // load filtered by the L1, never reaches the LLC
					}
					if acc.Kind == memsys.Write {
						ke.writes++
					}
					home := pages.Touch(acc.Line, c.chip)
					si := pae.Slice(acc.Line)
					sector := sm.ChipSector(acc.Line, c.chip, sectors)
					// Probe the set-sampled memory-side model only for lines in
					// the hash sample; the hit flag fed to the profiler is
					// overridden below by the sampled rate, so unsampled lines
					// recording "miss" never reaches a decision.
					hit := false
					if sampleMask == 0 || lh>>48&sampleMask == 0 {
						hit = llcModel[home*cfg.SlicesPerChip+si].access(lh)
						ke.llcLookups++
						if hit {
							ke.llcHits++
						}
					}
					prof.Record(acc.Line, sector, c.chip, home, si, hit)
					ke.llcAcc++
				}
				if ke.replayed >= maxSteps {
					break
				}
			}
		}
		ke.inputs = prof.Inputs()
		// The memory-side hit rate comes from the set-sampled model's own
		// counters (the profiler's full-population counters saw "miss" for
		// every unsampled line).
		ke.inputs.MemSide.LLCHit = 0
		if ke.llcLookups > 0 {
			ke.inputs.MemSide.LLCHit = float64(ke.llcHits) / float64(ke.llcLookups)
		}
		if opts.DisableLSU {
			ke.inputs.MemSide.LSU = 1
			ke.inputs.SMSide.LSU = 1
		}
		ke.decision = core.Decide(arch, ke.inputs, opts.Theta)
		if prof.Samples() < opts.MinSamples {
			// Mirror the exact controller: too little traffic to trust the
			// model, stay memory-side.
			ke.decision.PickSM = false
		}
	}

	// Synthesize the run record from the analytical model. Every cycle
	// figure below is an estimate: the bandwidth-bound term divides the
	// predicted post-L1 traffic by the chosen organization's EAB, the
	// issue-bound term assumes each SM retires at most one memory op per
	// cycle; the larger of the two bounds each kernel.
	run := &stats.Run{
		Benchmark: w.SourceName(),
		Org:       cfg.Org.String(),
		Fidelity:  Estimate,
	}
	if total > 0 {
		run.Kernels = make([]stats.KernelRec, 0, total)
	}
	for ki := 0; ki < total; ki++ {
		ke := &kes[ki%uniq]
		ops := ke.ops
		missFrac, writeFrac := 0.0, 0.0
		if ke.replayed > 0 {
			missFrac = float64(ke.llcAcc) / float64(ke.replayed)
			writeFrac = float64(ke.writes) / float64(ke.replayed)
		}
		pickSM := ke.decision.PickSM
		eab, hitRate := orgEAB(cfg.Org, ke, pickSM)
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
		// served from the local replica).
		remote := 1 - ke.inputs.RLocal
		if pickSM || cfg.Org == llc.SMSide {
			run.RingBytes += int64(math.Round(float64(misses)*remote)) * int64(lineBytes)
		} else {
			run.RingBytes += int64(math.Round(llcOps*remote)) * int64(lineBytes)
		}
		run.Cycles += kCycles
		run.Kernels = append(run.Kernels, stats.KernelRec{
			Index:  ki,
			Name:   w.KernelName(ki),
			Org:    kernelOrgString(cfg.Org, pickSM),
			Cycles: kCycles,
			MemOps: ops,
		})
	}
	if run.Cycles < 1 {
		run.Cycles = 1
	}
	return run, nil
}

// orgEAB returns the effective aggregate bandwidth (bytes/cycle) and the
// predicted LLC hit rate of the configuration the organization runs the
// kernel under. SAC uses the chosen side; the hybrid organizations (Static,
// Dynamic) cache both locally and at home, so the better side's EAB bounds
// them — a deliberate coarse approximation, documented in DESIGN.md §14.
func orgEAB(org llc.Org, ke *kernelEstimate, pickSM bool) (eab, hitRate float64) {
	mem := ke.decision.MemSide.Total
	smSide := ke.decision.SMSide.Total
	switch org {
	case llc.MemorySide:
		return mem, ke.inputs.MemSide.LLCHit
	case llc.SMSide:
		return smSide, ke.inputs.SMSide.LLCHit
	case llc.SAC:
		if pickSM {
			return smSide, ke.inputs.SMSide.LLCHit
		}
		return mem, ke.inputs.MemSide.LLCHit
	default: // Static, Dynamic: hybrid
		return math.Max(mem, smSide), math.Max(ke.inputs.MemSide.LLCHit, ke.inputs.SMSide.LLCHit)
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
