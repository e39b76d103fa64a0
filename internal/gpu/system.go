package gpu

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xchip"
)

// runState is the system's phase within a kernel.
type runState uint8

const (
	stRun           runState = iota // SMs issuing
	stDrainSwitch                   // draining before a SAC mode switch
	stDrainSwitchWB                 // switch flush writebacks in flight
	stDrainEnd                      // warps done; draining residual traffic
	stDrainEndWB                    // kernel-boundary flush writebacks in flight
	stDrainRevert                   // draining before reverting to memory-side for re-profiling
	stDrainRevertWB                 // revert flush writebacks in flight
)

// Workload is a source of per-warp access streams: the synthetic Table-4
// specs (workload.Spec) and trace replays (trace.Replay) both implement it.
type Workload interface {
	// SourceName labels the workload in statistics.
	SourceName() string
	// KernelCount returns the number of kernel invocations.
	KernelCount() int
	// KernelName returns the name of invocation i.
	KernelName(i int) string
	// Stream builds warp (chip, sm, warp)'s stream for kernel ki on machine m.
	Stream(m workload.Machine, ki, chip, sm, warp int) workload.AccessStream
}

// CheckMachine lets a shape-bound workload (a trace replay) reject a machine
// it was not captured for as a returned error, before any stream is
// requested; other workloads accept every machine.
func CheckMachine(w Workload, m workload.Machine) error {
	if cm, ok := w.(interface{ CheckMachine(workload.Machine) error }); ok {
		return cm.CheckMachine(m)
	}
	return nil
}

// System is one simulated multi-chip GPU executing one benchmark.
type System struct {
	cfg   Config
	spec  Workload
	chips []*chip
	ring  *xchip.Ring
	pae   *addr.PAE
	pages *addr.PageTable

	mode  llc.Mode
	sac   *core.Controller
	hwCoh bool

	reqSinks  []noc.Sink
	respSinks []noc.Sink
	// Preallocated per-tick sinks: building these inside step would allocate
	// a closure (dramSinks) or an interface box (ringDeliver) every cycle.
	dramSinks   []func(*memsys.Request)
	ringDeliver xchip.Sink

	// One request pool for the whole machine: every request is allocated
	// from pool (SM issues, writebacks, invalidations) and retired into it,
	// wherever in the machine its life ends.
	pool memsys.Pool

	run   *stats.Run
	now   int64
	state runState

	// noFF disables idle-span skipping entirely (regression tests compare
	// stepped against fast-forwarded runs).
	noFF bool
	// afterStep, when set, runs after every step of a kernel's cycle loop —
	// the seam the invariant tests hang checkActivity on. Nothing outside
	// the tests sets it.
	afterStep func()

	// Fault injection (nil injector = healthy run).
	inj            *fault.Injector
	faultReprofile bool // SAC must re-profile against a changed topology

	// leftMemorySide records that this SAC run stopped being the memory-side
	// run of its config (memorySideTwin): a kernel began a switch, or a SAC
	// timed event cut a fast-forward short.
	leftMemorySide bool

	// Progress watchdog: cycle of the last retirement or skippable span.
	lastProgress int64

	// Observability (nil observer = zero-cost run: one pointer check per
	// guarded site). obsNext is the next metrics-sample cycle; fastForward
	// treats it as a timed trigger so windows land on exact boundaries.
	obs       *obs.Observer
	obsM      *obsMetrics
	obsWindow int64
	obsNext   int64
	obsLast   int64

	// drainStart is the cycle the current mode-switch drain began (valid in
	// drain states; the tracer spans reconfigurations with it).
	drainStart int64

	// Cancellation (nil = uncancellable). ctxNext throttles Err polls.
	ctx     context.Context
	ctxNext int64

	kernelIdx        int
	kernelStartCycle int64
	kernelStartOps   int64
	kernelMode       llc.Mode // mode the kernel (mostly) ran under, for Figure 12
}

// New builds a system for one benchmark run.
func New(cfg Config, spec Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Machine().Validate(); err != nil {
		return nil, err
	}
	if spec.KernelCount() == 0 {
		return nil, fmt.Errorf("gpu: workload %q has no kernels", spec.SourceName())
	}
	if err := CheckMachine(spec, cfg.Machine()); err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		spec:  spec,
		pae:   addr.NewPAE(cfg.SlicesPerChip, cfg.ChannelsPerChip),
		pages: addr.NewPageTable(cfg.Geom, cfg.Chips),
		mode:  cfg.Org.InitialMode(),
		run:   &stats.Run{Benchmark: spec.SourceName(), Org: cfg.Org.String()},
	}
	s.chips = make([]*chip, cfg.Chips)
	for i := range s.chips {
		s.chips[i] = newChip(&cfg, i, &s.pool)
	}
	s.hwCoh = cfg.Coherence == coherence.Hardware
	for _, c := range s.chips {
		ch := c
		s.reqSinks = append(s.reqSinks, &reqSink{s: s, c: c, ringOut: c.ringOutReqPort(&cfg)})
		s.respSinks = append(s.respSinks, &respSink{s: s, c: c, ringOut: c.ringOutRespPort(&cfg)})
		s.dramSinks = append(s.dramSinks, func(req *memsys.Request) { s.dramDone(ch, req) })
	}
	s.ringDeliver = ringSink{s}
	s.ring = xchip.New(xchip.Config{
		Chips:      cfg.Chips,
		LinkBW:     cfg.RingLinkBW,
		HopLatency: cfg.RingHopLatency,
		QueueBound: cfg.QueueBound,
	})
	if cfg.Org.Partitioned() {
		for _, c := range s.chips {
			c.setPartition(cfg.LLCWays / 2)
		}
	}
	if cfg.Org == llc.SAC {
		prof := core.NewProfiler(cfg.Chips, cfg.SlicesPerChip, cfg.CRDConfig())
		s.sac = core.NewController(cfg.ArchParams(), prof, cfg.SACOpts)
	}
	return s, nil
}

// Mode returns the system's current routing mode.
func (s *System) Mode() llc.Mode { return s.mode }

// SAC returns the SAC controller, or nil for other organizations.
func (s *System) SAC() *core.Controller { return s.sac }

// Now returns the current cycle.
func (s *System) Now() int64 { return s.now }

// Run executes every kernel invocation of the benchmark and returns the
// collected statistics.
func (s *System) Run() (*stats.Run, error) {
	for s.kernelIdx = 0; s.kernelIdx < s.spec.KernelCount(); s.kernelIdx++ {
		if err := s.runKernel(); err != nil {
			return nil, err
		}
	}
	s.finalize()
	return s.run, nil
}

func (s *System) runKernel() error {
	m := s.cfg.Machine()
	for _, c := range s.chips {
		for _, smu := range c.sms {
			streams := make([]workload.AccessStream, s.cfg.WarpsPerSM)
			for w := range streams {
				streams[w] = s.spec.Stream(m, s.kernelIdx, c.idx, smu.Index(), w)
			}
			smu.LoadStreams(streams)
			c.setWake(smu.Index(), smu.SleepUntil())
		}
	}
	s.kernelStartCycle = s.now
	s.kernelStartOps = s.run.MemOps
	s.lastProgress = s.now
	s.state = stRun
	for _, c := range s.chips {
		c.wakeHint = 0 // LoadStreams reset every SM's wakeup hint
	}
	if s.cfg.Org == llc.SAC {
		s.mode = llc.ModeMemorySide
		s.sac.StartKernel(s.now)
		if d, ok := s.sac.AdoptCached(s.spec.KernelName(s.kernelIdx)); ok && d.PickSM {
			// Extension (Options.ReuseKernelDecisions): a repeat invocation
			// adopts its cached decision without re-profiling. Nothing is in
			// flight at kernel start, so the switch happens immediately
			// after the (possibly empty) flush.
			s.state = stDrainSwitch
			s.drainStart = s.now
			s.leftMemorySide = true
			s.traceAdopt(d.PickSM)
		}
	}
	s.kernelMode = s.mode

	for {
		if s.ctx != nil && s.now >= s.ctxNext {
			s.ctxNext = s.now + ctxCheckStride
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("gpu: %s kernel %d canceled at cycle %d: %w",
					s.spec.SourceName(), s.kernelIdx, s.now, err)
			}
		}
		if s.cfg.WatchdogCycles > 0 && s.now-s.lastProgress > s.cfg.WatchdogCycles {
			serr := s.newStallError()
			s.traceStall(serr)
			return serr
		}
		if s.now-s.kernelStartCycle > s.cfg.MaxCycles {
			return fmt.Errorf("gpu: %s kernel %d exceeded %d cycles (org %s, state %s)",
				s.spec.SourceName(), s.kernelIdx, s.cfg.MaxCycles, s.cfg.Org, s.state)
		}
		done := s.step()
		if s.afterStep != nil {
			s.afterStep()
		}
		if done {
			break
		}
		s.fastForward()
	}

	s.run.Kernels = append(s.run.Kernels, stats.KernelRec{
		Index:  s.kernelIdx,
		Name:   s.spec.KernelName(s.kernelIdx),
		Org:    s.kernelMode.String(),
		Cycles: s.now - s.kernelStartCycle,
		MemOps: s.run.MemOps - s.kernelStartOps,
	})
	s.traceKernel()
	return nil
}

// step advances one cycle; it returns true when the kernel has fully
// retired (including boundary flushes). The order is the contract every
// golden pins: all chips' early phase in chip-index order, the ring, all
// chips' late phase in chip-index order.
func (s *System) step() bool {
	s.now++

	// 0. Fault edges due this cycle change device health before any traffic
	// moves, so the effect is identical however the previous idle span was
	// traversed (stepped or fast-forwarded).
	if s.inj != nil {
		s.applyFaults()
	}
	// 1-3. Per chip: DRAM completions, LLC hit-pipeline drain, response-NoC
	// delivery.
	for _, c := range s.chips {
		s.phaseEarly(c)
	}
	// 4. Ring moves inter-chip traffic: the only agent that touches more than
	// one chip.
	s.ring.Tick(s.now, s.ringDeliver)
	// 5-7. Per chip: slice lookups, request-NoC delivery, SM issue.
	for _, c := range s.chips {
		s.phaseLate(c)
	}
	// 8. Controllers, profiling, sampling, state transitions.
	s.controlPhase()

	// 9. Metrics window boundary (observer attached only).
	if s.obs != nil && s.now >= s.obsNext {
		s.observeSample()
	}

	return s.boundaryPhase()
}

// phaseEarly is phases 1-3 for one chip: DRAM completions, LLC hit-latency
// pipelines draining into the response network, and response-NoC delivery.
func (s *System) phaseEarly(c *chip) {
	now := s.now
	c.mem.Tick(now, s.cfg.Geom.LineBytes, s.dramSinks[c.idx])
	for c.hitDelay.HeadDue(now) {
		req, _ := c.hitDelay.PopDue(now)
		s.respondFromSlice(c, req.Slice, req)
	}
	c.respNet.Tick(now, s.respSinks[c.idx])
}

// phaseLate is phases 5-7 for one chip: slice lookups, request-NoC delivery,
// and SM issue.
func (s *System) phaseLate(c *chip) {
	// Only the slices holding a queued lookup, in index order. tickSlice
	// clears the current slice's bit at most; new bits appear only in the
	// request crossbar's delivery below.
	for busy := c.sliceBusy; busy != 0; busy &= busy - 1 {
		s.tickSlice(c, bits.TrailingZeros64(busy))
	}
	c.reqNet.Tick(s.now, s.reqSinks[c.idx])
	if s.state == stRun {
		s.issueChip(c)
	}
}

// issueChip lets every SM of one chip that may issue this cycle try to, in
// SM index order, and dispatches each new request at the moment of issue:
// dispatch calls PageTable.Touch, whose first-touch placement depends on
// arrival order.
func (s *System) issueChip(c *chip) {
	if s.now < c.wakeHint {
		// No SM of the chip can issue yet: the whole loop below would be
		// side-effect-free skips. deliverToSM lowers the hint when a
		// response may wake a warp earlier.
		return
	}
	r := s.run
	minWake := sm.Never
	// Walk the SMs that can wake on their own, in index order; one is touched
	// only when it may issue. The others sleep until a Receive: they would
	// add sm.Never to minWake, its initial value.
	for word, live := range c.smLive {
		for ; live != 0; live &= live - 1 {
			i := word<<6 + bits.TrailingZeros64(live)
			w := c.smWake[i]
			if s.now < w {
				if w < minWake {
					minWake = w
				}
				continue // no warp can issue yet (lowered by Receive)
			}
			smu := c.sms[i]
			cluster := int(c.smCluster[i])
			res := smu.Issue(s.now, c.reqNet.CanInject(cluster))
			w = smu.SleepUntil()
			c.setWake(i, w)
			if w < minWake {
				minWake = w // post-attempt hint: ≤ now when the SM stays hot
			}
			if !res.Issued {
				continue
			}
			r.MemOps++
			if res.IsWrite {
				r.Writes++
			} else {
				r.Reads++
				switch {
				case res.L1Hit:
					r.L1Hits++
				case res.Merged:
					r.L1Misses++
					r.L1Merged++
				default:
					r.L1Misses++
				}
			}
			if res.Req != nil {
				s.dispatch(c, cluster, res.Req)
			}
		}
	}
	c.wakeHint = minWake
}

// fastForward advances the clock over idle spans: cycles in which no queue,
// pipeline, DRAM channel, ring link or warp can make progress. It runs between
// steps and moves s.now to one cycle before the earliest future event, so
// the next step executes exactly that event's cycle. Skipping is restricted
// to stRun (drain states bill DrainCycles per cycle) and is bounded by every
// timed trigger — the occupancy census, SAC's profiling window and the
// Dynamic controller's epoch — so no control decision shifts. Skipped spans
// are counted in stats.Run.Skipped and remain part of Cycles.
//
// The body is deliberately closure-free: it runs after every step, and a
// closure capturing the minimum would allocate on each call.
func (s *System) fastForward() {
	if s.state != stRun || s.noFF {
		return
	}
	// Work queued in a crossbar or a slice lookup pipeline progresses every
	// cycle: no skip is possible.
	for _, c := range s.chips {
		if c.reqNet.Pending() > 0 || c.respNet.Pending() > 0 || c.sliceBusy != 0 {
			return
		}
	}
	// The earliest scheduled event, read from the summaries the loop keeps
	// (checkActivity verifies each after every step): the ring, then per chip
	// the DRAM partition, the hit pipeline's head and the SMs that can wake
	// on their own. An event at or before now+1 means the next cycle does
	// real work.
	next := sm.Never
	if t := s.ring.NextEvent(s.now); t >= 0 {
		next = t
	}
	for _, c := range s.chips {
		if t := c.mem.NextEvent(s.now); t >= 0 && t < next {
			next = t
		}
		if t, ok := c.hitDelay.NextDue(); ok && t < next {
			next = t
		}
		for word, live := range c.smLive {
			for ; live != 0; live &= live - 1 {
				if w := c.smWake[word<<6+bits.TrailingZeros64(live)]; w < next {
					next = w
				}
			}
		}
		if next <= s.now+1 {
			return
		}
	}
	if next == sm.Never {
		// Nothing is scheduled: nothing can ever wake the system again.
		// Skipping would trip the MaxCycles watchdog instantly instead of
		// letting it count real stalled cycles, so step normally and let it
		// fire with context.
		return
	}
	// Timed triggers cap the skip so their boundary cycle executes.
	if census := (s.now/512 + 1) * 512; census < next {
		next = census
	}
	if s.cfg.Org == llc.Dynamic {
		for _, c := range s.chips {
			if t := c.dyn.NextAdjust(); t > s.now && t < next {
				next = t
			}
		}
	}
	if s.inj != nil {
		if t := s.inj.NextEdge(s.now); t > s.now && t < next {
			next = t // fault edges execute on their exact cycle
		}
	}
	if s.obs != nil && s.obsNext > s.now && s.obsNext < next {
		next = s.obsNext // metrics windows sample on their exact boundary
	}
	// SAC's window end and re-profile cap last: one that binds steps a cycle
	// the memory-side run of the same config skips, so the run leaves it.
	if s.sac != nil && next > s.now+1 {
		if t := s.sac.NextTimedEvent(); t > s.now && t < next {
			next, s.leftMemorySide = t, true
		}
	}
	if next <= s.now+1 {
		return
	}
	s.run.Skipped += next - 1 - s.now
	s.now = next - 1
	// A skip proves a scheduled future event exists, so the system is
	// waiting, not wedged: the watchdog window restarts.
	s.lastProgress = s.now
}

// retire returns a dead request to the pool and marks forward progress for
// the watchdog. Every request death point goes through it.
func (s *System) retire(req *memsys.Request) {
	s.lastProgress = s.now
	s.pool.Put(req)
}

// dispatch resolves placement and injects a fresh SM request into the
// request network.
func (s *System) dispatch(c *chip, cluster int, req *memsys.Request) {
	req.HomeChip = s.pages.Touch(req.Line, req.SrcChip)
	req.Slice = s.pae.Slice(req.Line)
	req.Channel = s.pae.SliceChannel(req.Slice)
	route := llc.RouteFor(s.mode, req.SrcChip, req.HomeChip)
	req.ServeChip = route.LookupChip
	req.Stage = memsys.StageNoCReq

	out := req.Slice
	if req.ServeChip != c.idx {
		out = c.ringOutReqPort(&s.cfg) // memory-side remote: straight to the ring
	}
	c.reqNet.Inject(noc.Message{
		Req: req, In: cluster, Out: out,
		Bytes: req.ReqBytes(s.cfg.Geom.LineBytes),
	})
}

// reqSink handles messages leaving a chip's request crossbar. It is a
// concrete noc.Sink, not a closure: the crossbar calls it once per offered
// message.
type reqSink struct {
	s       *System
	c       *chip
	ringOut int
}

func (k *reqSink) Offer(out int, req *memsys.Request, bytes int) bool {
	s, c := k.s, k.c
	if out == k.ringOut {
		if !s.ring.CanInject(c.idx, s.reqRingDst(req), req.Line) {
			return false
		}
		req.Stage = memsys.StageRingReq
		s.ring.Inject(xchip.Message{Req: req, Src: c.idx, Dst: s.reqRingDst(req), Bytes: bytes})
		return true
	}
	sl := &c.slices[out]
	if sl.lookupQ.Full() {
		return false
	}
	req.Stage = memsys.StageLLC
	sl.lookupQ.Push(req)
	c.sliceBusy |= 1 << uint(out)
	return true
}

// reqRingDst returns the chip a request-side ring message is heading to.
func (s *System) reqRingDst(req *memsys.Request) int {
	if req.Inval {
		return req.ServeChip // invalidation target carried in ServeChip
	}
	if req.Stage == memsys.StageRingReq && req.ServeChip != req.SrcChip {
		return req.ServeChip // memory-side remote request to its serving chip
	}
	return req.HomeChip // bypasses, writebacks, hybrid second lookups
}

// respSink handles messages leaving a chip's response crossbar.
type respSink struct {
	s       *System
	c       *chip
	ringOut int
}

func (k *respSink) Offer(out int, req *memsys.Request, bytes int) bool {
	if out == k.ringOut {
		if !k.s.ring.CanInject(k.c.idx, req.SrcChip, req.Line) {
			return false
		}
		req.Stage = memsys.StageRingResp
		k.s.ring.Inject(xchip.Message{Req: req, Src: k.c.idx, Dst: req.SrcChip, Bytes: bytes})
		return true
	}
	k.s.deliverToSM(k.c, req) // SMs always absorb responses
	return true
}

// deliverToSM completes a load at its SM.
func (s *System) deliverToSM(c *chip, req *memsys.Request) {
	req.Stage = memsys.StageDone
	smu := c.sms[req.SrcSM]
	smu.Receive(s.now, req)
	w := smu.SleepUntil()
	c.setWake(req.SrcSM, w)
	if w < c.wakeHint {
		c.wakeHint = w
	}
	r := s.run
	r.RespCount[req.Origin]++
	r.RespBytes[req.Origin] += int64(req.RespBytes(s.cfg.Geom.LineBytes))
	r.ReadLatencySum += s.now - req.IssueCycle
	r.ReadLatencyN++
	s.retire(req) // reads die at delivery
}

// ringSink adapts the system to the ring's delivery interface.
type ringSink struct{ s *System }

func (rs ringSink) Offer(chipIdx int, m xchip.Message) bool {
	s := rs.s
	c := s.chips[chipIdx]
	req := m.Req
	switch {
	case req.Inval:
		// Hardware-coherence invalidation arriving at a sharer.
		c.slices[req.Slice].arr.Invalidate(req.Line)
		s.run.InvalMessages++
		s.retire(req) // invalidations are absorbed here
	case req.Stage == memsys.StageRingResp:
		s.ringResponseArrived(c, req) // fills/deliveries always absorb
	case req.Bypass || req.WB:
		// SM-side remote miss or writeback: bypass the LLC slice into the
		// shared memory-controller queue (§3.1), which may be full.
		if !c.mem.CanAccept(req.Channel) {
			return false
		}
		req.Stage = memsys.StageDRAM
		c.mem.Enqueue(req)
	default:
		// Memory-side remote request or hybrid second lookup: traverse this
		// chip's request NoC to the slice.
		in := c.ringInReqPort(&s.cfg)
		if !c.reqNet.CanInject(in) {
			return false
		}
		req.Stage = memsys.StageNoCReq
		c.reqNet.Inject(noc.Message{
			Req: req, In: in, Out: req.Slice,
			Bytes: req.ReqBytes(s.cfg.Geom.LineBytes),
		})
	}
	return true
}

// ringResponseArrived handles a response reaching the requesting chip.
func (s *System) ringResponseArrived(c *chip, req *memsys.Request) {
	lineRemote := req.HomeChip != c.idx
	switch {
	case req.Bypass:
		// SM-side remote miss fill: install in the local slice, release the
		// MSHR waiters, respond.
		s.fillSlice(c, req.Slice, req, cache.PartAll, lineRemote)
	case req.Phase == 1:
		// Hybrid: fill the requester's remote partition (the L1.5 role).
		s.fillSlice(c, req.Slice, req, cache.PartRemote, lineRemote)
	default:
		// Memory-side remote response: no local install.
		if req.Kind == memsys.Read {
			c.respNet.Inject(noc.Message{
				Req: req, In: c.ringInRespPort(&s.cfg), Out: int(c.smCluster[req.SrcSM]),
				Bytes: req.RespBytes(s.cfg.Geom.LineBytes),
			})
		}
	}
}

// fillSlice installs a returning line into a slice of the requesting chip,
// releases MSHR waiters and generates the responses.
func (s *System) fillSlice(c *chip, si int, req *memsys.Request, part cache.Partition, remote bool) {
	sl := &c.slices[si]
	// wi is the way now holding the line for the primary and every waiter
	// (they all wait on req.Line); -1 when a disabled slice kept nothing.
	victim, evicted, wi := sl.arr.Fill(req.Line, req.Sector, part, remote)
	if evicted {
		s.evict(c, victim)
	}
	if req.Kind == memsys.Write {
		sl.arr.MarkDirtyWay(wi)
	}
	if s.hwCoh {
		if d := c.dirFor(s, req.Line); d != nil {
			d.AddSharer(req.Line, c.idx)
		}
	}
	waiters := sl.mshr.Fill(req.Line)
	s.respondAfterFill(c, si, req)
	for _, w := range waiters {
		w.Origin = req.Origin
		w.LLCHit = req.LLCHit
		s.respondAfterFill(c, si, w)
		if w.Kind == memsys.Write {
			sl.arr.MarkDirtyWay(wi)
			s.retire(w) // write-through stores are absorbed at the fill
		}
	}
	// Retire a write primary only after the loop: waiters copy its Origin.
	if req.Kind == memsys.Write {
		s.retire(req)
	}
}

// dirFor returns the hardware-coherence directory responsible for a line
// (at the line's home chip), or nil under software coherence.
func (c *chip) dirFor(s *System, line uint64) *coherence.Directory {
	home := s.pages.Home(line)
	if home < 0 {
		return nil
	}
	return s.chips[home].dir
}

// respondAfterFill sends the response of a filled request toward its SM
// (writes are absorbed: write-through stores carry no response).
func (s *System) respondAfterFill(c *chip, si int, req *memsys.Request) {
	if req.Kind != memsys.Read {
		return
	}
	c.respNet.Inject(noc.Message{
		Req: req, In: si, Out: int(c.smCluster[req.SrcSM]),
		Bytes: req.RespBytes(s.cfg.Geom.LineBytes),
	})
}

// evict handles a victim leaving an LLC slice: dirty lines become writeback
// traffic to the victim's home memory; the coherence directory drops the
// sharer.
func (s *System) evict(c *chip, v cache.Victim) {
	if s.hwCoh {
		if d := c.dirFor(s, v.Line); d != nil {
			d.RemoveSharer(v.Line, c.idx)
		}
	}
	if !v.Dirty {
		return
	}
	home := s.pages.Home(v.Line)
	if home < 0 {
		home = c.idx
	}
	s.writeback(c, v.Line, home)
}

// writeback issues a dirty-line writeback from chip c to the line's home.
func (s *System) writeback(c *chip, line uint64, home int) {
	wb := s.pool.Get()
	wb.Kind = memsys.Write
	wb.Line = line
	wb.SrcChip = c.idx
	wb.HomeChip = home
	wb.ServeChip = home
	wb.Slice = s.pae.Slice(line)
	wb.Channel = s.pae.SliceChannel(wb.Slice)
	wb.WB = true
	wb.Bypass = true
	wb.Stage = memsys.StageDRAM
	if home == c.idx {
		c.mem.Enqueue(wb)
		return
	}
	wb.Stage = memsys.StageRingReq
	s.ring.Inject(xchip.Message{
		Req: wb, Src: c.idx, Dst: home,
		Bytes: wb.ReqBytes(s.cfg.Geom.LineBytes),
	})
}

// tickSlice performs bandwidth-gated lookups at one slice whose lookup queue
// holds a request (its sliceBusy bit is set — phaseLate visits no other).
// The lookup bucket refills lazily against the global clock, so the cycles a
// slice sat with an empty queue, and fast-forwarded idle spans, credit it
// exactly as per-cycle refills would: the bucket's rate never changes, and
// linear-with-cap accrual composes.
func (s *System) tickSlice(c *chip, si int) {
	sl := &c.slices[si]
	sl.bkt.Advance(s.now - sl.lastRef)
	sl.lastRef = s.now
	for sl.bkt.CanTake() {
		req, ok := sl.lookupQ.Peek()
		if !ok {
			break
		}
		done, dead, cost := s.lookup(c, sl, si, req)
		if !done {
			sl.mshr.NoteStall()
			return // head-of-line blocked: resources full downstream
		}
		sl.lookupQ.Pop()
		sl.bkt.Take(cost)
		if dead {
			s.retire(req) // write hit: absorbed at the slice, no response
		}
	}
	if sl.lookupQ.Empty() {
		c.sliceBusy &^= 1 << uint(si)
	}
}

// lookup processes one request at a slice. It returns done=false when the
// request cannot proceed this cycle (MSHR, DRAM queue or ring full); dead
// marks a request whose life ends at this lookup (write hits — absorbed,
// no response), which the caller retires after popping it; cost is the
// bandwidth cost of the lookup.
func (s *System) lookup(c *chip, sl *llcSlice, si int, req *memsys.Request) (done, dead bool, cost int) {
	lineBytes := s.cfg.Geom.LineBytes
	atHome := c.idx == req.HomeChip
	secondLookup := req.Phase == 1 && atHome && req.SrcChip != c.idx

	// One tag scan serves both the resource probe and the counted access:
	// FindLine touches no counters, so a miss that cannot proceed this cycle
	// (MSHR/DRAM/ring full) does not repeat its lookup statistics on every
	// retry cycle; CommitLookup applies the counter and LRU effects once the
	// access is known to go through.
	wi := sl.arr.FindLine(req.Line)
	hit := wi >= 0 && sl.arr.SectorValid(wi, req.Sector)
	// A miss on a line already outstanding merges into its MSHR entry and
	// needs no downstream resources; any other miss must find them free.
	merge := !hit && !secondLookup && sl.mshr.Lookup(req.Line)
	if !hit && !merge && !s.missResourcesAvailable(c, sl, req, secondLookup) {
		return false, false, 0
	}
	sl.arr.CommitLookup(wi, req.Sector)

	// SAC profiling observes every first lookup (which, during the window,
	// runs under the memory-side configuration: this chip is the home chip).
	if s.sac != nil && !secondLookup && s.sac.Profiling(s.now) {
		s.sac.Profiler().Record(req.Line, req.Sector, req.SrcChip, req.HomeChip, si, hit)
	}

	if hit {
		req.LLCHit = true
		if req.SrcChip == c.idx {
			req.Origin = memsys.OriginLocalLLC
		} else {
			req.Origin = memsys.OriginRemoteLLC
		}
		if req.Kind == memsys.Write {
			sl.arr.MarkDirtyWay(wi)
			s.writeInvalidate(c, req)
			return true, true, lineBytes // stores deposit a line of data and die here
		}
		c.hitDelay.Insert(s.now, s.cfg.LLCLatency, req)
		return true, false, lineBytes
	}

	// Miss paths. Resources were checked by missResourcesAvailable.
	if secondLookup {
		// Hybrid home-side miss: fetch from the home memory partition. No
		// MSHR here (the requester chip holds the MSHR entry for reads).
		req.Stage = memsys.StageDRAM
		c.mem.Enqueue(req)
		return true, false, memsys.CtrlBytes
	}

	if merge {
		sl.mshr.Allocate(req) // secondary miss
		return true, false, memsys.CtrlBytes
	}

	switch {
	case atHome:
		// Memory-side / SM-side local / hybrid local: local memory.
		sl.mshr.Allocate(req)
		req.Stage = memsys.StageDRAM
		c.mem.Enqueue(req)
	case s.mode == llc.ModeSMSide:
		// SM-side remote miss: cross the ring and bypass the home LLC
		// (paper Figure 6, steps 3-4).
		sl.mshr.Allocate(req)
		req.Bypass = true
		req.Stage = memsys.StageRingReq
		s.ring.Inject(xchip.Message{
			Req: req, Src: c.idx, Dst: req.HomeChip,
			Bytes: req.ReqBytes(lineBytes),
		})
	default:
		// Hybrid remote first-lookup miss: second lookup at the home chip.
		// Writes travel without an MSHR entry — they are absorbed at the
		// home side (write-through toward the home partition) and never
		// generate a response.
		if req.Kind == memsys.Read {
			sl.mshr.Allocate(req)
		}
		req.Phase = 1
		req.Stage = memsys.StageRingReq
		s.ring.Inject(xchip.Message{
			Req: req, Src: c.idx, Dst: req.HomeChip,
			Bytes: req.ReqBytes(lineBytes),
		})
	}
	return true, false, memsys.CtrlBytes
}

// missResourcesAvailable reports whether a missing request that does not
// merge into an outstanding MSHR entry can take its miss path this cycle
// (§3.1 back-pressure: a full shared memory-controller queue or ring link
// holds the request in the queue ahead of the slice).
func (s *System) missResourcesAvailable(c *chip, sl *llcSlice, req *memsys.Request, secondLookup bool) bool {
	if secondLookup {
		return c.mem.CanAccept(req.Channel)
	}
	atHome := c.idx == req.HomeChip
	needMSHR := atHome || s.mode == llc.ModeSMSide || req.Kind == memsys.Read
	if needMSHR && sl.mshr.Full() {
		return false
	}
	if atHome {
		return c.mem.CanAccept(req.Channel)
	}
	return s.ring.CanInject(c.idx, req.HomeChip, req.Line)
}

// writeInvalidate performs the hardware-coherence write action: update the
// local copy, invalidate every remote copy (§5.6).
func (s *System) writeInvalidate(c *chip, req *memsys.Request) {
	if !s.hwCoh {
		return
	}
	d := c.dirFor(s, req.Line)
	if d == nil {
		return
	}
	d.AddSharer(req.Line, c.idx)
	for _, sharer := range d.WriteInvalidate(req.Line, c.idx) {
		if sharer == c.idx {
			continue
		}
		inv := s.pool.Get()
		inv.Kind = memsys.Write
		inv.Line = req.Line
		inv.SrcChip = c.idx
		inv.HomeChip = req.HomeChip
		inv.ServeChip = sharer
		inv.Slice = s.pae.Slice(req.Line)
		inv.Inval = true
		inv.Stage = memsys.StageRingReq
		s.ring.Inject(xchip.Message{
			Req: inv, Src: c.idx, Dst: sharer, Bytes: memsys.CtrlBytes,
		})
	}
}

// respondFromSlice sends a hit response from a slice into the response
// network (toward the local SM or across the ring).
func (s *System) respondFromSlice(c *chip, si int, req *memsys.Request) {
	out := int(c.smCluster[req.SrcSM])
	if req.SrcChip != c.idx {
		out = c.ringOutRespPort(&s.cfg)
	}
	c.respNet.Inject(noc.Message{
		Req: req, In: si, Out: out,
		Bytes: req.RespBytes(s.cfg.Geom.LineBytes),
	})
}

// dramDone handles a completed memory access at chip c (the home chip).
func (s *System) dramDone(c *chip, req *memsys.Request) {
	if req.WB {
		s.retire(req) // writeback retired
		return
	}
	if req.Origin == memsys.OriginNone {
		if req.SrcChip == c.idx {
			req.Origin = memsys.OriginLocalMem
		} else {
			req.Origin = memsys.OriginRemoteMem
		}
	}
	if req.Bypass {
		// SM-side remote miss: the line returns to the requesting chip over
		// the ring (the home LLC was bypassed).
		req.Stage = memsys.StageRingResp
		s.ring.Inject(xchip.Message{
			Req: req, Src: c.idx, Dst: req.SrcChip,
			Bytes: req.RespBytes(s.cfg.Geom.LineBytes),
		})
		return
	}
	// The serving slice is on this chip: install and respond.
	route := llc.RouteFor(s.mode, req.SrcChip, req.HomeChip)
	part := route.HomePart
	sl := &c.slices[req.Slice]
	// wi: as in fillSlice.
	victim, evicted, wi := sl.arr.Fill(req.Line, req.Sector, part, false)
	if evicted {
		s.evict(c, victim)
	}
	if req.Kind == memsys.Write {
		sl.arr.MarkDirtyWay(wi)
		s.writeInvalidate(c, req)
	}
	if s.hwCoh {
		if d := c.dirFor(s, req.Line); d != nil {
			d.AddSharer(req.Line, c.idx)
		}
	}
	waiters := sl.mshr.Fill(req.Line)
	s.respondMemFill(c, req)
	for _, w := range waiters {
		w.Origin = req.Origin
		s.respondMemFill(c, w)
		if w.Kind == memsys.Write {
			sl.arr.MarkDirtyWay(wi)
			s.retire(w) // write-through stores are absorbed at the fill
		}
	}
	// Retire a write primary only after the loop: waiters copy its Origin.
	if req.Kind == memsys.Write {
		s.retire(req)
	}
}

// respondMemFill routes a memory-fill response toward its SM.
func (s *System) respondMemFill(c *chip, req *memsys.Request) {
	if req.Kind != memsys.Read {
		return
	}
	s.respondFromSlice(c, req.Slice, req)
}

// inflight reports whether any request is still in the system.
func (s *System) inflight() bool {
	if s.ring.Pending() > 0 {
		return true
	}
	for _, c := range s.chips {
		if c.inflight() > 0 {
			return true
		}
	}
	return false
}

// controlPhase runs the periodic controllers: SAC's profiling window, the
// Dynamic organization's rebalancing, and the occupancy census.
func (s *System) controlPhase() {
	// SAC decision at the end of the profiling window.
	if s.sac != nil && s.state == stRun && s.sac.WindowElapsed(s.now) {
		samples := s.sac.Profiler().Samples()
		d := s.sac.Decide()
		s.traceSACDecision(d.PickSM, d.Advantage, samples)
		s.sac.StoreDecision(s.spec.KernelName(s.kernelIdx), d)
		if d.PickSM && s.mode != llc.ModeSMSide {
			s.state = stDrainSwitch
			s.drainStart = s.now
			s.leftMemorySide = true
		}
	}

	// Periodic re-profiling (Options.ReprofileEvery): revert to memory-side
	// and open a fresh window.
	if s.sac != nil && s.state == stRun && s.sac.ReprofileDue(s.now) {
		if s.mode == llc.ModeSMSide {
			s.state = stDrainRevert
			s.drainStart = s.now
		} else {
			s.sac.Rearm(s.now)
		}
	}

	// Fault-driven re-profiling: the topology changed, so any standing
	// decision was taken against bandwidths that no longer exist. Revert to
	// memory-side (if needed) and open a fresh window under the degraded
	// ArchParams. A window already in progress just continues — Decide will
	// already see the new parameters.
	if s.sac != nil && s.faultReprofile && s.state == stRun {
		s.faultReprofile = false
		switch {
		case s.mode == llc.ModeSMSide:
			s.state = stDrainRevert
			s.drainStart = s.now
		case !s.sac.Profiling(s.now):
			s.sac.Rearm(s.now)
		}
	}

	// Dynamic way rebalancing.
	if s.cfg.Org == llc.Dynamic {
		for _, c := range s.chips {
			ringBytes := s.ring.BytesMoved() // global; per-chip approximation below
			dramBytes := c.mem.BytesMoved
			c.dyn.Observe((ringBytes-c.lastRingBytes)/int64(s.cfg.Chips), dramBytes-c.lastDRAMBytes)
			c.lastRingBytes = ringBytes
			c.lastDRAMBytes = dramBytes
			if c.dyn.Tick(s.now) {
				c.setPartition(c.dyn.LocalWays())
			}
		}
	}

	// Occupancy census for Figure 9.
	if s.now%512 == 0 {
		for _, c := range s.chips {
			l, r := c.occupancy()
			s.run.OccLocalSum += int64(l)
			s.run.OccRemoteSum += int64(r)
		}
		s.run.OccSamples++
	}

	// Drain-state bookkeeping.
	switch s.state {
	case stDrainSwitch:
		s.run.DrainCycles++
		if !s.inflight() {
			// Flush per coherence scheme, then adopt the SM-side mode.
			if s.cfg.Coherence == coherence.Software {
				s.flushLLC(false)
				s.state = stDrainSwitchWB
			} else {
				s.switchToSMSide()
			}
		}
	case stDrainSwitchWB:
		s.run.DrainCycles++
		if !s.inflight() {
			s.switchToSMSide()
		}
	case stDrainRevert:
		s.run.DrainCycles++
		if !s.inflight() {
			// Dirty remote-homed lines would be stale under memory-side
			// routing: write them back before the revert.
			s.flushLLC(false)
			s.state = stDrainRevertWB
		}
	case stDrainRevertWB:
		s.run.DrainCycles++
		if !s.inflight() {
			s.mode = llc.ModeMemorySide
			s.run.Reconfigs++
			s.sac.Rearm(s.now)
			s.state = stRun
			s.traceReconfig(llc.ModeMemorySide)
		}
	}
}

func (s *System) switchToSMSide() {
	s.mode = llc.ModeSMSide
	s.kernelMode = llc.ModeSMSide
	s.run.Reconfigs++
	s.state = stRun
	s.traceReconfig(llc.ModeSMSide)
}

// flushLLC writes back dirty lines and invalidates LLC contents. full=false
// flushes dirty lines only (SAC switch under software coherence); full=true
// invalidates everything (kernel-boundary coherence flush).
func (s *System) flushLLC(full bool) {
	for _, c := range s.chips {
		ch := c
		onDirty := func(line uint64, remote bool) {
			home := s.pages.Home(line)
			if home < 0 {
				home = ch.idx
			}
			s.writeback(ch, line, home)
			s.run.DirtyFlushed++
		}
		for i := range c.slices {
			if full {
				c.slices[i].arr.FlushAllFunc(onDirty)
			} else {
				c.slices[i].arr.FlushDirty(onDirty)
			}
		}
		if c.dir != nil && full {
			c.dir.Reset()
		}
	}
}

// boundaryPhase checks for kernel completion and runs the kernel-boundary
// protocol. It returns true when the kernel (and its boundary work) is done.
func (s *System) boundaryPhase() bool {
	switch s.state {
	case stRun:
		for _, c := range s.chips {
			for _, smu := range c.sms {
				if !smu.KernelDone() {
					return false
				}
			}
		}
		s.state = stDrainEnd
		return false
	case stDrainEnd:
		s.run.DrainCycles++
		if s.inflight() {
			return false
		}
		// Software L1 coherence: invalidate L1s at every kernel boundary.
		for _, c := range s.chips {
			for _, smu := range c.sms {
				smu.FlushL1()
			}
		}
		// LLC flush when the configuration cached remote data under
		// software coherence (SM-side and hybrid organizations).
		needFlush := s.cfg.Coherence == coherence.Software && s.mode != llc.ModeMemorySide
		// SAC reverts to memory-side between kernels; under software
		// coherence the flush above covers it, under hardware coherence the
		// revert is just a routing switch (stale local copies age out).
		if s.cfg.Org == llc.SAC && s.mode == llc.ModeSMSide {
			s.mode = llc.ModeMemorySide
		}
		if needFlush {
			s.flushLLC(true)
			s.state = stDrainEndWB
			return false
		}
		return true
	case stDrainEndWB:
		s.run.DrainCycles++
		if s.inflight() {
			return false
		}
		return true
	}
	return false
}

// memorySideTwin returns, after a successful Run, the memory-side
// organization's result for the same config, workload and fault plan when
// this SAC run stayed that run: no kernel switched (an adopted decision
// included) and no SAC timed event cut a fast-forward short. SAC profiles
// under memory-side routing and its counters watch without steering
// (§3.2–3.3), so such a run is the memory-side run cycle for cycle; the twin
// is its result with Org relabelled, sharing no memory with it. Every other
// run answers nil.
func (s *System) memorySideTwin() *stats.Run {
	if s.sac == nil || s.leftMemorySide {
		return nil
	}
	twin := *s.run
	twin.Org = llc.MemorySide.String()
	twin.Kernels = slices.Clone(s.run.Kernels)
	return &twin
}

// finalize folds component counters into the run statistics.
func (s *System) finalize() {
	s.run.Cycles = s.now
	for _, c := range s.chips {
		h, m := c.llcCounters()
		s.run.LLCHits += h
		s.run.LLCMisses += m
		s.run.DRAMBytes += c.mem.BytesMoved
	}
	s.run.RingBytes = s.ring.BytesMoved()
	if s.obs != nil {
		s.observeSample() // close the partial final window
	}
}
