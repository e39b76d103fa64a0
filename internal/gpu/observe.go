package gpu

import (
	"context"
	"strconv"

	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/xchip"
)

// RunOpts bundles the optional attachments of one simulation run. The zero
// value is a plain healthy, unobserved, uncancellable run; Config stays free
// of these fields so it remains comparable (the experiment engine uses it as
// a memoization key).
type RunOpts struct {
	// Faults is a deterministic fault plan (nil or empty = healthy run).
	Faults *fault.Plan
	// Observer receives windowed metrics and trace events, sampled every
	// Observer.Window cycles. Nil costs one pointer check per guarded site
	// and zero allocations.
	Observer *obs.Observer
	// Ctx cancels the run: the cycle loop polls it on a coarse stride and
	// returns ctx.Err() (wrapped) from Run. Nil means uncancellable.
	Ctx context.Context
	// Deprecated: Workers has no effect (one stepper); removed with ROADMAP item 1.
	Workers int
	// Fidelity selects the backend rung ("estimate" or "exact"/""). The
	// cycle-exact engine itself ignores it — dispatch happens in
	// internal/backend, which strips the field before handing an exact run
	// to RunWith. It lives here so the public option plumbing
	// (sac.WithFidelity) needs no second options struct.
	Fidelity string
}

// Deprecated: SetWorkers has no effect (one stepper); removed with ROADMAP item 1.
func (s *System) SetWorkers(int) {}

// RunWith builds a system, applies the options and runs it: the package's
// one build-and-run entry point.
func RunWith(cfg Config, w Workload, o RunOpts) (*stats.Run, error) {
	run, _, err := RunWithTwin(cfg, w, o)
	return run, err
}

// RunWithTwin is RunWith that also answers a SAC run's memory-side twin: the
// memory-side run of the same config (Org aside), workload and options,
// when the SAC run stayed it, else nil. A failed run answers no twin.
func RunWithTwin(cfg Config, w Workload, o RunOpts) (run, twin *stats.Run, err error) {
	sys, err := New(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	if o.Faults != nil {
		if err := sys.InjectFaults(o.Faults); err != nil {
			return nil, nil, err
		}
	}
	if o.Observer.Enabled() {
		sys.AttachObserver(o.Observer)
	}
	if o.Ctx != nil {
		sys.SetContext(o.Ctx)
	}
	if run, err = sys.Run(); err != nil {
		return nil, nil, err
	}
	return run, sys.memorySideTwin(), nil
}

// ctxCheckStride is how many cycles pass between context polls. ctx.Err is
// an atomic load but the cycle loop runs hundreds of thousands of iterations
// per wall second, so the poll rides a coarse stride; at simulated-cycle
// rates above ~100k/s cancellation latency stays well under wall-clock
// perception.
const ctxCheckStride = 4096

// SetContext arms run cancellation. Must be called before Run.
func (s *System) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.ctxNext = s.now
}

// obsMetrics carries the registered metric handles plus the previous-sample
// counter values the windowed gauges are differenced against. All slices are
// sized at attach time so the sampling path allocates nothing.
type obsMetrics struct {
	// Running totals (set, not incremented: the simulation owns the truth).
	cycles, skipped, memOps, reads, writes   *obs.Metric
	llcHits, llcMisses                       *obs.Metric
	ringBytes, dramBytes                     *obs.Metric
	reconfigs, drains, dirtyFlushed, faultEv *obs.Metric

	// Windowed / instantaneous gauges.
	retiredRate *obs.Metric   // memory ops retired per cycle over the window
	sacMode     []*obs.Metric // per chip: 0 memory-side, 1 SM-side
	sacProf     *obs.Metric   // 1 while the SAC profiling window is open
	sliceHit    [][]*obs.Metric
	sliceMSHR   [][]*obs.Metric
	ringUtil    [][2]*obs.Metric
	chanOcc     [][]*obs.Metric
	reqQDepth   [][]*obs.Metric
	respQDepth  [][]*obs.Metric

	// Previous-sample counters.
	prevMemOps    int64
	prevHits      [][]int64
	prevMisses    [][]int64
	prevRingBytes [][2]int64
	prevChanBytes [][]int64
}

// AttachObserver arms the observability layer: metrics are registered now
// (one series per unit), samples land every o.EffectiveWindow() cycles plus
// once at finalize. Must be called before Run; the fast-forward logic treats
// the next sample cycle as a timed trigger so skipped idle spans never jump
// a window boundary.
func (s *System) AttachObserver(o *obs.Observer) {
	if !o.Enabled() {
		return
	}
	s.obs = o
	s.obsWindow = o.EffectiveWindow()
	s.obsLast = s.now
	s.obsNext = s.now + s.obsWindow
	if o.Metrics != nil {
		s.obsM = s.registerMetrics(o.Metrics)
	}
}

func (s *System) registerMetrics(r *obs.Registry) *obsMetrics {
	m := &obsMetrics{
		cycles:       r.Counter("sacsim_cycles_total", "Simulated cycles."),
		skipped:      r.Counter("sacsim_skipped_cycles_total", "Idle cycles fast-forwarded (included in cycles)."),
		memOps:       r.Counter("sacsim_mem_ops_total", "Completed memory operations."),
		reads:        r.Counter("sacsim_reads_total", "Completed loads."),
		writes:       r.Counter("sacsim_writes_total", "Completed stores."),
		llcHits:      r.Counter("sacsim_llc_hits_total", "LLC hits at serving slices."),
		llcMisses:    r.Counter("sacsim_llc_misses_total", "LLC misses at serving slices."),
		ringBytes:    r.Counter("sacsim_ring_bytes_total", "Bytes moved on the inter-chip ring."),
		dramBytes:    r.Counter("sacsim_dram_bytes_total", "Bytes moved by DRAM channels."),
		reconfigs:    r.Counter("sacsim_reconfigurations_total", "LLC organization switches."),
		drains:       r.Counter("sacsim_drain_cycles_total", "Cycles spent draining for switches and boundaries."),
		dirtyFlushed: r.Counter("sacsim_dirty_flushed_total", "Dirty LLC lines written back at flushes."),
		faultEv:      r.Counter("sacsim_fault_events_total", "Fault edges applied by the injector."),
		retiredRate:  r.Gauge("sacsim_retired_rate", "Memory ops retired per cycle over the last window."),
		sacProf:      r.Gauge("sacsim_sac_profiling", "1 while the SAC profiling window is open."),
	}
	chips := s.cfg.Chips
	m.sacMode = make([]*obs.Metric, chips)
	m.sliceHit = make([][]*obs.Metric, chips)
	m.sliceMSHR = make([][]*obs.Metric, chips)
	m.ringUtil = make([][2]*obs.Metric, chips)
	m.chanOcc = make([][]*obs.Metric, chips)
	m.reqQDepth = make([][]*obs.Metric, chips)
	m.respQDepth = make([][]*obs.Metric, chips)
	m.prevHits = make([][]int64, chips)
	m.prevMisses = make([][]int64, chips)
	m.prevRingBytes = make([][2]int64, chips)
	m.prevChanBytes = make([][]int64, chips)
	dirName := [2]string{"cw", "ccw"}
	for ci := 0; ci < chips; ci++ {
		chip := strconv.Itoa(ci)
		m.sacMode[ci] = r.Gauge("sacsim_sac_mode",
			"Routing mode per chip: 0 memory-side, 1 SM-side.", obs.L("chip", chip))
		m.sliceHit[ci] = make([]*obs.Metric, s.cfg.SlicesPerChip)
		m.sliceMSHR[ci] = make([]*obs.Metric, s.cfg.SlicesPerChip)
		m.prevHits[ci] = make([]int64, s.cfg.SlicesPerChip)
		m.prevMisses[ci] = make([]int64, s.cfg.SlicesPerChip)
		for si := 0; si < s.cfg.SlicesPerChip; si++ {
			slice := strconv.Itoa(si)
			m.sliceHit[ci][si] = r.Gauge("sacsim_llc_hit_rate",
				"Windowed LLC hit rate per slice.", obs.L("chip", chip), obs.L("slice", slice))
			m.sliceMSHR[ci][si] = r.Gauge("sacsim_llc_mshr_occupancy",
				"MSHR entries in use / capacity per slice.", obs.L("chip", chip), obs.L("slice", slice))
		}
		for d := 0; d < 2; d++ {
			m.ringUtil[ci][d] = r.Gauge("sacsim_ring_link_utilization",
				"Windowed utilization of the directional ring link leaving each chip.",
				obs.L("chip", chip), obs.L("dir", dirName[d]))
		}
		m.chanOcc[ci] = make([]*obs.Metric, s.cfg.ChannelsPerChip)
		m.prevChanBytes[ci] = make([]int64, s.cfg.ChannelsPerChip)
		for ch := 0; ch < s.cfg.ChannelsPerChip; ch++ {
			m.chanOcc[ci][ch] = r.Gauge("sacsim_dram_channel_occupancy",
				"Windowed fraction of DRAM channel data bandwidth in use.",
				obs.L("chip", chip), obs.L("channel", strconv.Itoa(ch)))
		}
		reqPorts := s.cfg.ClustersPerChip() + 1
		respPorts := s.cfg.SlicesPerChip + 1
		m.reqQDepth[ci] = make([]*obs.Metric, reqPorts)
		m.respQDepth[ci] = make([]*obs.Metric, respPorts)
		for p := 0; p < reqPorts; p++ {
			m.reqQDepth[ci][p] = r.Gauge("sacsim_noc_queue_depth",
				"Instantaneous NoC ingress-queue depth per input port.",
				obs.L("chip", chip), obs.L("net", "req"), obs.L("port", strconv.Itoa(p)))
		}
		for p := 0; p < respPorts; p++ {
			m.respQDepth[ci][p] = r.Gauge("sacsim_noc_queue_depth",
				"Instantaneous NoC ingress-queue depth per input port.",
				obs.L("chip", chip), obs.L("net", "resp"), obs.L("port", strconv.Itoa(p)))
		}
	}
	return m
}

// observeSample publishes one metrics window. It runs at window boundaries
// and once at finalize; everything it touches is preallocated, so the cost
// is bounded reads of component counters.
func (s *System) observeSample() {
	win := s.now - s.obsLast
	s.obsLast = s.now
	s.obsNext = s.now + s.obsWindow
	var retired float64
	if m := s.obsM; m != nil {
		m.cycles.Set(float64(s.now))
		m.skipped.Set(float64(s.run.Skipped))
		m.memOps.Set(float64(s.run.MemOps))
		m.reads.Set(float64(s.run.Reads))
		m.writes.Set(float64(s.run.Writes))
		m.ringBytes.Set(float64(s.ring.BytesMoved()))
		m.reconfigs.Set(float64(s.run.Reconfigs))
		m.drains.Set(float64(s.run.DrainCycles))
		m.dirtyFlushed.Set(float64(s.run.DirtyFlushed))
		m.faultEv.Set(float64(s.run.FaultEvents))
		if win > 0 {
			retired = float64(s.run.MemOps-m.prevMemOps) / float64(win)
			m.retiredRate.Set(retired)
		}
		m.prevMemOps = s.run.MemOps

		modeVal := 0.0
		if s.mode == llc.ModeSMSide {
			modeVal = 1
		}
		profVal := 0.0
		if s.sac != nil && s.sac.Profiling(s.now) {
			profVal = 1
		}
		m.sacProf.Set(profVal)

		var llcHits, llcMisses int64
		for ci, c := range s.chips {
			m.sacMode[ci].Set(modeVal)
			for si := range c.slices {
				sl := &c.slices[si]
				h, miss := sl.arr.Hits, sl.arr.Misses
				llcHits += h
				llcMisses += miss
				dh, dm := h-m.prevHits[ci][si], miss-m.prevMisses[ci][si]
				m.prevHits[ci][si], m.prevMisses[ci][si] = h, miss
				rate := 0.0
				if dh+dm > 0 {
					rate = float64(dh) / float64(dh+dm)
				}
				m.sliceHit[ci][si].Set(rate)
				m.sliceMSHR[ci][si].Set(float64(sl.mshr.Len()) / float64(s.cfg.MSHRPerSlice))
			}
			for d := 0; d < 2; d++ {
				lb := s.ring.LinkBytes(ci, xchip.Direction(d))
				util := 0.0
				if win > 0 {
					util = float64(lb-m.prevRingBytes[ci][d]) / (s.cfg.RingLinkBW * float64(win))
				}
				m.prevRingBytes[ci][d] = lb
				m.ringUtil[ci][d].Set(util)
			}
			for ch := 0; ch < s.cfg.ChannelsPerChip; ch++ {
				cb := c.mem.ChannelBytes(ch)
				occ := 0.0
				if win > 0 {
					occ = float64(cb-m.prevChanBytes[ci][ch]) / (s.cfg.ChannelBW * float64(win))
				}
				m.prevChanBytes[ci][ch] = cb
				m.chanOcc[ci][ch].Set(occ)
			}
			for p := range m.reqQDepth[ci] {
				m.reqQDepth[ci][p].Set(float64(c.reqNet.InQueueLen(p)))
			}
			for p := range m.respQDepth[ci] {
				m.respQDepth[ci][p].Set(float64(c.respNet.InQueueLen(p)))
			}
		}
		m.llcHits.Set(float64(llcHits))
		m.llcMisses.Set(float64(llcMisses))
		var totalDRAM int64
		for _, c := range s.chips {
			totalDRAM += c.mem.BytesMoved
		}
		m.dramBytes.Set(float64(totalDRAM))
	}
	if t := s.obsTrace(); t != nil && win > 0 {
		t.Counter("retired_per_cycle", s.now, obs.A("rate", retired))
	}
}

// obsTrace returns the attached tracer, or nil.
func (s *System) obsTrace() *obs.Tracer {
	if s.obs == nil {
		return nil
	}
	return s.obs.Trace
}

// traceKernel emits the completed kernel's span.
func (s *System) traceKernel() {
	t := s.obsTrace()
	if t == nil {
		return
	}
	t.Complete("kernel", s.spec.KernelName(s.kernelIdx), s.kernelStartCycle,
		s.now-s.kernelStartCycle, obs.TIDKernel,
		obs.A("index", int64(s.kernelIdx)),
		obs.A("org", s.kernelMode.String()),
		obs.A("mem_ops", s.run.MemOps-s.kernelStartOps))
}

// traceSACDecision emits the profile-window span and the decision instant.
func (s *System) traceSACDecision(pickSM bool, advantage float64, samples int64) {
	t := s.obsTrace()
	if t == nil {
		return
	}
	start := s.sac.WindowStart()
	t.Complete("sac", "profile", start, s.now-start, obs.TIDSAC,
		obs.A("samples", samples))
	t.Instant("sac", "decide", s.now, obs.TIDSAC,
		obs.A("pick_sm", pickSM), obs.A("advantage", advantage))
}

// traceAdopt emits the cached-decision adoption instant.
func (s *System) traceAdopt(pickSM bool) {
	if t := s.obsTrace(); t != nil {
		t.Instant("sac", "adopt-cached", s.now, obs.TIDSAC, obs.A("pick_sm", pickSM))
	}
}

// traceReconfig emits a completed mode-switch drain span.
func (s *System) traceReconfig(to llc.Mode) {
	if t := s.obsTrace(); t != nil {
		t.Complete("sac", "reconfigure", s.drainStart, s.now-s.drainStart, obs.TIDSAC,
			obs.A("to", to.String()))
	}
}

// traceFaultEdge emits one injected health change.
func (s *System) traceFaultEdge(ch fault.Change) {
	if t := s.obsTrace(); t != nil {
		t.Instant("fault", ch.Domain.String(), s.now, obs.TIDFaults,
			obs.A("chip", int64(ch.Chip)), obs.A("unit", int64(ch.Unit)),
			obs.A("scale", ch.Scale))
	}
}

// traceStall emits the watchdog's abort with its queue dump.
func (s *System) traceStall(e *StallError) {
	if t := s.obsTrace(); t != nil {
		t.Instant("supervisor", "watchdog-stall", s.now, obs.TIDSupervis,
			obs.A("state", e.State), obs.A("last_progress", e.LastProgress),
			obs.A("dump", e.Dump))
	}
}
