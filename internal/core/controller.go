package core

import "fmt"

// Profiler is the software model of the hardware performance-counter
// architecture of Figure 7. During a kernel's profiling window (run under
// the memory-side configuration) the gpu package feeds it every LLC access;
// it maintains, per chip, the CRD plus the 'total requests', 'local
// requests' and the two per-slice request-counter arrays, and produces the
// WorkloadInputs the EAB model consumes.
type Profiler struct {
	crd      []*CRD  // one per chip, observing lines homed there
	memSlice []int64 // requests per global slice under memory-side routing
	smSlice  []int64 // requests per global slice under SM-side routing

	chips         int
	slicesPerChip int

	total int64
	local int64

	llcLookups int64 // actual memory-side lookups in the window
	llcHits    int64 // actual memory-side hits in the window
}

// NewProfiler builds the counter architecture for a system.
func NewProfiler(chips, slicesPerChip int, crdCfg CRDConfig) *Profiler {
	if chips <= 0 || slicesPerChip <= 0 {
		panic("core: invalid profiler shape")
	}
	p := &Profiler{
		chips:         chips,
		slicesPerChip: slicesPerChip,
		crd:           make([]*CRD, chips),
		memSlice:      make([]int64, chips*slicesPerChip),
		smSlice:       make([]int64, chips*slicesPerChip),
	}
	cfg := crdCfg
	cfg.Chips = chips
	for c := range p.crd {
		p.crd[c] = NewCRD(cfg)
	}
	return p
}

// Record registers one profiled LLC access.
//
//	line, sector — the accessed line and sector
//	srcChip      — the requesting chip
//	homeChip     — the chip owning the line's memory partition
//	slice        — the slice index within a chip (PAE hash; identical on
//	               every chip, which is what lets one counter array stand
//	               for both configurations' slice of the same index)
//	memSideHit   — whether the actual (memory-side) lookup hit
func (p *Profiler) Record(line uint64, sector, srcChip, homeChip, slice int, memSideHit bool) {
	p.total++
	if srcChip == homeChip {
		p.local++
	}
	p.memSlice[homeChip*p.slicesPerChip+slice]++
	p.smSlice[srcChip*p.slicesPerChip+slice]++
	p.llcLookups++
	if memSideHit {
		p.llcHits++
	}
	p.crd[homeChip].Access(line, srcChip, sector)
}

// Inputs assembles the EAB model inputs from the window's counters.
func (p *Profiler) Inputs() WorkloadInputs {
	w := WorkloadInputs{}
	if p.total > 0 {
		w.RLocal = float64(p.local) / float64(p.total)
	}
	if p.llcLookups > 0 {
		w.MemSide.LLCHit = float64(p.llcHits) / float64(p.llcLookups)
	}
	w.MemSide.LSU = LSU(p.memSlice)
	var crdReq, crdHit int64
	for _, c := range p.crd {
		crdReq += c.Requests
		crdHit += c.HitsN
	}
	if crdReq > 0 {
		w.SMSide.LLCHit = float64(crdHit) / float64(crdReq)
	}
	w.SMSide.LSU = LSU(p.smSlice)
	return w
}

// Samples returns the number of recorded accesses.
func (p *Profiler) Samples() int64 { return p.total }

// Reset clears all counters and the CRDs for the next kernel's window.
func (p *Profiler) Reset() {
	p.total, p.local, p.llcLookups, p.llcHits = 0, 0, 0, 0
	for i := range p.memSlice {
		p.memSlice[i] = 0
		p.smSlice[i] = 0
	}
	for _, c := range p.crd {
		c.Reset()
	}
}

// Options tune the SAC controller; zero values select the paper's defaults.
type Options struct {
	WindowCycles int64   // profiling window (default 2000, §3.2)
	Theta        float64 // EAB comparison threshold (default 0.05, §3.5)
	MinSamples   int64   // below this many profiled accesses, stay memory-side
	DisableLSU   bool    // ablation: force LSU = 1 in both configurations

	// ReuseKernelDecisions is an extension beyond the paper: cache the EAB
	// decision per kernel (keyed by kernel name) and skip re-profiling on
	// repeat invocations. The paper profiles every invocation (§3.2);
	// caching removes that recurring overhead for iterative applications
	// such as BFS at the risk of staleness across input-dependent phases.
	ReuseKernelDecisions bool

	// ReprofileEvery re-runs the profiling window periodically during long
	// kernels (the paper explored 100K- and 1M-cycle periods and found it
	// unnecessary for its workloads, §3.2; off when 0). Re-profiling
	// requires reverting to the memory-side configuration first, so the
	// CRD again observes every request of its partition.
	ReprofileEvery int64
}

// WithDefaults returns o with the paper's §3.2 and §3.5 values in place of
// zero fields: the effective window, θ and minimum-sample guard every rung
// profiles and decides with.
func (o Options) WithDefaults() Options {
	if o.WindowCycles <= 0 {
		o.WindowCycles = 2000
	}
	if o.Theta == 0 {
		o.Theta = 0.05
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 64
	}
	return o
}

// Controller is SAC's per-kernel runtime (§3.2): profile under memory-side
// for WindowCycles, evaluate the EAB model, and reconfigure to SM-side when
// the predicted advantage exceeds θ. At kernel end the gpu package reverts
// to memory-side and calls StartKernel again.
type Controller struct {
	prof  *Profiler
	cache map[string]Decision
	opts  Options
	arch  ArchParams

	kernelStart int64
	lastDec     Decision
	decided     bool
}

// NewController builds a SAC controller.
func NewController(arch ArchParams, prof *Profiler, opts Options) *Controller {
	if err := arch.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return &Controller{
		opts: opts.WithDefaults(), arch: arch, prof: prof,
		cache: make(map[string]Decision),
	}
}

// Options returns the effective options.
func (c *Controller) Options() Options { return c.opts }

// Arch returns the architecture parameters the EAB model currently uses.
func (c *Controller) Arch() ArchParams { return c.arch }

// SetArch swaps the architecture parameters mid-run. Fault injection uses it
// to keep the EAB model honest about degraded link, LLC and memory
// bandwidth; the next Decide evaluates against the new topology.
func (c *Controller) SetArch(arch ArchParams) error {
	if err := arch.Validate(); err != nil {
		return err
	}
	c.arch = arch
	return nil
}

// Profiler exposes the counter architecture (the gpu package records
// accesses through it while Profiling returns true).
func (c *Controller) Profiler() *Profiler { return c.prof }

// StartKernel arms profiling at the given cycle.
func (c *Controller) StartKernel(now int64) {
	c.kernelStart = now
	c.decided = false
	c.prof.Reset()
}

// AdoptCached applies a previously cached decision for the named kernel,
// skipping this invocation's profiling window. It reports whether a cached
// decision existed (always false unless ReuseKernelDecisions is set).
func (c *Controller) AdoptCached(kernel string) (Decision, bool) {
	if !c.opts.ReuseKernelDecisions {
		return Decision{}, false
	}
	d, ok := c.cache[kernel]
	if !ok {
		return Decision{}, false
	}
	c.decided = true
	c.lastDec = d
	return d, true
}

// StoreDecision records a kernel's decision for future invocations.
func (c *Controller) StoreDecision(kernel string, d Decision) {
	if c.opts.ReuseKernelDecisions {
		c.cache[kernel] = d
	}
}

// Profiling reports whether cycle now is inside the profiling window.
func (c *Controller) Profiling(now int64) bool {
	return !c.decided && now-c.kernelStart < c.opts.WindowCycles
}

// WindowStart returns the cycle the current profiling window (or kernel)
// was armed at; the event tracer uses it to span profile windows.
func (c *Controller) WindowStart() int64 { return c.kernelStart }

// ReprofileDue reports whether a periodic re-profiling window should start
// (only meaningful once a decision has been taken).
func (c *Controller) ReprofileDue(now int64) bool {
	return c.opts.ReprofileEvery > 0 && c.decided &&
		now-c.kernelStart >= c.opts.ReprofileEvery
}

// Rearm starts a fresh profiling window mid-kernel (periodic re-profiling).
func (c *Controller) Rearm(now int64) {
	c.kernelStart = now
	c.decided = false
	c.prof.Reset()
}

// NextTimedEvent returns the next cycle at which one of the controller's
// time-based triggers (WindowElapsed, ReprofileDue) can first fire, or -1
// when no timed trigger is pending. Cycle loops use it to bound idle-cycle
// fast-forwarding so a skip never jumps over a trigger boundary.
func (c *Controller) NextTimedEvent() int64 {
	if !c.decided {
		return c.kernelStart + c.opts.WindowCycles
	}
	if c.opts.ReprofileEvery > 0 {
		return c.kernelStart + c.opts.ReprofileEvery
	}
	return -1
}

// WindowElapsed reports whether the profiling window has ended without a
// decision having been taken yet.
func (c *Controller) WindowElapsed(now int64) bool {
	return !c.decided && now-c.kernelStart >= c.opts.WindowCycles
}

// Decide evaluates the EAB model on the window's counters. It must be
// called once, after WindowElapsed becomes true; it returns the decision
// (PickSM = reconfigure to SM-side).
func (c *Controller) Decide() Decision {
	inputs := c.prof.Inputs()
	if c.opts.DisableLSU {
		inputs.MemSide.LSU = 1
		inputs.SMSide.LSU = 1
	}
	d := Decide(c.arch, inputs, c.opts.Theta)
	if c.prof.Samples() < c.opts.MinSamples {
		// Too little traffic to trust the model: stay memory-side.
		d.PickSM = false
	}
	c.decided = true
	c.lastDec = d
	return d
}

// LastDecision returns the most recent decision (zero value before any).
func (c *Controller) LastDecision() Decision { return c.lastDec }
