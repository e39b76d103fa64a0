package gpu

// Deterministic intra-run chip parallelism.
//
// The chips of the simulated GPU interact only through the inter-chip ring,
// and the ring charges at least one cycle per hop — the classic conservative
// lookahead window of parallel discrete-event simulation. step exploits it:
// phases 1-3 (DRAM completions, hit-pipeline drain, response NoC) and phases
// 5-7a (slice lookups, request NoC, SM issue decisions) run as per-chip
// tasks on a persistent worker group, with barriers around the serial ring
// phase. Anything a chip task would do to shared state is staged instead:
//
//   - ring injections land in the chip's xchip.Lane and are merged into the
//     ring in chip-index order (the order the serial loop injects in);
//   - stats increments accumulate in a per-chip statsDelta and are added to
//     stats.Run in chip-index order (sums commute, order is for clarity);
//   - SAC profiler records are buffered and replayed in chip-index order;
//   - SM issues are decided in parallel (pass A) but dispatched serially in
//     chip-index order (pass B), because PageTable.Touch's first-touch
//     placement is order-sensitive;
//   - request retirement goes to the retiring chip's own pool, and request
//     IDs come from per-chip counters namespaced in the top byte (IDs are
//     write-only after allocation, so this is unobservable).
//
// Worker count 1 (no group) skips the staging entirely: injections,
// profiler records, and dispatches go straight to their targets, so the
// serial path pays nothing for the machinery. Staging reproduces the
// direct path exactly because the ring's egress queues are partitioned by
// source chip — flushing lanes in chip-index order rebuilds precisely the
// per-cycle ordering the serial loop establishes, and each lane's
// CanInject sees exactly the occupancy (own queue + own staged entries)
// the serial loop would have seen. The determinism tests in
// parallel_test.go pin this byte-for-byte across organizations and worker
// counts.

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/memsys"
)

// chipScratch is one chip's staging area for a single cycle: everything a
// parallel chip task must not write to shared state directly. All buffers
// are preallocated and reused; the steady-state cycle loop stays
// allocation-free (TestCycleLoopSteadyStateAllocs pins it at zero).
type chipScratch struct {
	stats         statsDelta
	dirty         bool      // stats or progress written this cycle: mergeScratch has work
	progress      bool      // a request retired this cycle (watchdog food)
	prof          []profRec // staged SAC profiler records (phase 5)
	issued        []issuedReq
	clusterStaged []int // per-cluster issue count, mirrors NoC occupancy
}

// statsDelta holds the stats.Run counters that chip tasks increment.
// Everything else on stats.Run is only written in serial phases.
type statsDelta struct {
	memOps, reads, writes      int64
	l1Hits, l1Misses, l1Merged int64
	respCount, respBytes       [5]int64
	readLatSum, readLatN       int64
	invalMessages              int64
}

// profRec is a deferred core.Profiler.Record call.
type profRec struct {
	line          uint64
	sector        int
	src, home, si int
	hit           bool
}

// issuedReq is a deferred dispatch from the issue phase's pass A.
type issuedReq struct {
	req     *memsys.Request
	cluster int
}

// SetWorkers requests n chip workers for subsequent Run calls. 0 and 1 both
// mean serial — the stepper a System nobody called SetWorkers on runs, and
// the faster one wherever it has been measured (the phase-parallel stepper
// at 2 workers takes 2.0-2.4x the serial wall on two cores); n > 1 runs n
// workers, capped at one per chip. Results are bit-identical at every worker
// count. Hardware-coherence configurations always run serially: their
// directory updates mutate remote chips inline.
func (s *System) SetWorkers(n int) { s.workers = n }

// effectiveWorkers resolves the requested worker count against the machine.
func (s *System) effectiveWorkers() int {
	n := s.workers
	if n > s.cfg.Chips {
		n = s.cfg.Chips
	}
	if s.hwCoh || n < 1 {
		n = 1
	}
	return n
}

// runPhase executes f(chipIndex) for every chip with cross-chip effects
// staged. With one worker the same staged code runs inline on the calling
// goroutine with staging off: the serial path injects, records, and
// dispatches directly, paying none of the buffering cost. The staged path
// reproduces it exactly — by the chip-index-order merge argument (see the
// package comment) and pinned byte-for-byte by TestChipWorkerDeterminism.
func (s *System) runPhase(f func(ci int)) {
	if s.group != nil {
		s.staged = true
		s.group.run(f)
		s.staged = false
		return
	}
	for ci := range s.chips {
		f(ci)
	}
}

// mergeLanes replays every chip's staged ring injections in chip-index
// order — the order the serial loop produces.
func (s *System) mergeLanes() {
	if s.group == nil {
		return // serial: everything was injected directly
	}
	for _, c := range s.chips {
		c.lane.Flush()
	}
}

// phaseEarly is phases 1-3 for one chip: DRAM completions, LLC hit-latency
// pipelines draining into the response network, and response-NoC delivery.
func (s *System) phaseEarly(ci int) {
	c := s.chips[ci]
	now := s.now
	c.mem.Tick(now, s.cfg.Geom.LineBytes, s.dramSinks[ci])
	if c.hitInFlight > 0 {
		for si := range c.slices {
			sl := &c.slices[si]
			for {
				req, ok := sl.hitDelay.PopDue(now)
				if !ok {
					break
				}
				c.hitInFlight--
				s.respondFromSlice(c, si, req)
			}
		}
	}
	c.respNet.Tick(now, s.respSinks[ci])
}

// phaseLate is phases 5-7a for one chip: slice lookups, request-NoC
// delivery, and the issue decision pass (dispatch is pass B, serial).
func (s *System) phaseLate(ci int) {
	c := s.chips[ci]
	// Only the slices holding a queued lookup, in index order. tickSlice
	// clears the current slice's bit at most; new bits appear only in the
	// request crossbar's delivery below.
	for busy := c.sliceBusy; busy != 0; busy &= busy - 1 {
		s.tickSlice(c, bits.TrailingZeros64(busy))
	}
	c.reqNet.Tick(s.now, s.reqSinks[ci])
	if s.state == stRun {
		s.issueChip(c)
	}
}

// phaseFused is one chip's whole cycle inside a fused multi-cycle epoch
// (step proved no ring landing is due): phases 1-3, then the chip's own
// staged ring injections flush and launch, then phases 5-7a — all in one
// task, one barrier pair for the cycle instead of two.
//
// Safety: with no landing due, Ring.Tick's landing phase is a no-op, and
// its launch phase decomposes into per-source-chip work (egress queues,
// buckets and delay lines are partitioned by source chip) — the only
// cross-chip coupling is the advance-all-or-forfeit bucket rule, which the
// coordinator reproduces via fusedForce and Ring.FinishFused. Flushing the
// chip's own lane in-task (instead of the coordinator's mergeLanes) is
// exact because a lane only ever stages messages sourced at its own chip,
// and the late phase afterwards sees its own post-launch egress occupancy —
// exactly what the serial order (early, merge, Tick, late) establishes.
func (s *System) phaseFused(ci int) {
	s.phaseEarly(ci)
	c := s.chips[ci]
	c.lane.Flush()
	s.ring.FusedLaunch(s.now, ci, s.fusedForce)
	s.phaseLate(ci)
}

// issueChip is pass A of the issue phase: every SM of one chip decides
// whether it issues this cycle; new requests are buffered, not dispatched.
// Dispatch calls PageTable.Touch, whose first-touch placement depends on
// arrival order, so it replays serially in chip-index order (pass B).
// Staged per-cluster counts keep the NoC back-pressure answer identical to
// the serial loop, where each dispatch occupies its queue slot immediately.
func (s *System) issueChip(c *chip) {
	if s.now < c.wakeHint {
		// No SM of the chip can issue yet: the whole loop below would be
		// side-effect-free skips. deliverToSM lowers the hint when a
		// response may wake a warp earlier.
		return
	}
	scr := &c.scr
	for i := range scr.clusterStaged {
		scr.clusterStaged[i] = 0
	}
	d := &scr.stats
	minWake := int64(1) << 62
	// Walk the wake mirror in SM index order (the issue order first-touch
	// placement depends on); an SM is touched only when it may issue.
	for i, w := range c.smWake {
		if s.now < w {
			if w < minWake {
				minWake = w
			}
			continue // no warp can issue yet (cleared by Receive)
		}
		smu := c.sms[i]
		cluster := int(c.smCluster[i])
		canInject := c.reqNet.CanInjectMore(cluster, scr.clusterStaged[cluster])
		res := smu.Issue(s.now, canInject, &c.nextID)
		w = smu.SleepUntil()
		c.smWake[i] = w
		if w < minWake {
			minWake = w // post-attempt hint: ≤ now when the SM stays hot
		}
		if !res.Issued {
			continue
		}
		scr.dirty = true
		d.memOps++
		if res.IsWrite {
			d.writes++
		} else {
			d.reads++
			switch {
			case res.L1Hit:
				d.l1Hits++
			case res.Merged:
				d.l1Misses++
				d.l1Merged++
			default:
				d.l1Misses++
			}
		}
		if res.Req != nil {
			if s.staged {
				scr.issued = append(scr.issued, issuedReq{req: res.Req, cluster: cluster})
				scr.clusterStaged[cluster]++
			} else {
				// Serial: dispatch immediately — the queue slot is taken for
				// real, so clusterStaged stays zero and CanInjectMore
				// degenerates to the plain occupancy check.
				s.dispatch(c, cluster, res.Req)
			}
		}
	}
	c.wakeHint = minWake
}

// dispatchIssued is pass B of the issue phase: replay the buffered issues
// through dispatch in chip-index order — exactly the serial issue order —
// so first-touch page placement sees the same line sequence.
func (s *System) dispatchIssued() {
	if s.group == nil {
		return // serial: issueChip dispatched inline
	}
	for _, c := range s.chips {
		for i := range c.scr.issued {
			rec := &c.scr.issued[i]
			s.dispatch(c, rec.cluster, rec.req)
			rec.req = nil
		}
		c.scr.issued = c.scr.issued[:0]
	}
}

// replayProfiler replays staged SAC profiling records in chip-index order.
// Only the slice-lookup phase records, so per-chip order is the serial
// order; and during the profiling window lookups run at the home chip while
// the CRDs are per home chip, so cross-chip replay order cannot interleave
// on a counter either way.
func (s *System) replayProfiler() {
	if s.sac == nil || s.group == nil {
		return // serial: lookups recorded directly
	}
	p := s.sac.Profiler()
	for _, c := range s.chips {
		for i := range c.scr.prof {
			r := &c.scr.prof[i]
			p.Record(r.line, r.sector, r.src, r.home, r.si, r.hit)
		}
		c.scr.prof = c.scr.prof[:0]
	}
}

// mergeScratch folds every chip's statsDelta into stats.Run and advances
// the progress watchdog if any chip retired a request this cycle. It runs
// serially after the second barrier, before the control phase reads the
// counters. A chip that wrote nothing this cycle (its dirty flag is clear)
// has an all-zero delta: folding and re-zeroing it would change nothing.
func (s *System) mergeScratch() {
	progress := false
	r := s.run
	for _, c := range s.chips {
		if !c.scr.dirty {
			continue
		}
		c.scr.dirty = false
		d := &c.scr.stats
		r.MemOps += d.memOps
		r.Reads += d.reads
		r.Writes += d.writes
		r.L1Hits += d.l1Hits
		r.L1Misses += d.l1Misses
		r.L1Merged += d.l1Merged
		for i := range d.respCount {
			r.RespCount[i] += d.respCount[i]
			r.RespBytes[i] += d.respBytes[i]
		}
		r.ReadLatencySum += d.readLatSum
		r.ReadLatencyN += d.readLatN
		r.InvalMessages += d.invalMessages
		*d = statsDelta{}
		if c.scr.progress {
			progress = true
			c.scr.progress = false
		}
	}
	if progress {
		s.lastProgress = s.now
	}
}

// workerGroup is a persistent pool of chip workers driven by an epoch
// barrier. The coordinator (the simulation goroutine) participates as
// worker 0, so a group of n workers spawns n-1 goroutines; workers pick up
// chips in a strided partition (chip ci goes to worker ci mod n), which is
// safe because tasks are independent — ordering is restored by the staged
// merges, not by the schedule.
//
// Barriers use short spin loops over atomics rather than channels: the loop
// synchronizes twice per simulated cycle against a serial cycle cost of a
// few microseconds, and channel wake-ups at that rate would cost more than
// the parallelism recovers. After spinBudget failed polls a waiter yields
// the processor on every further poll, so oversubscribed or single-core
// machines degrade to cooperative scheduling instead of burning a core.
type workerGroup struct {
	chips   int
	workers int
	task    func(ci int)
	epoch   atomic.Uint32
	arrived atomic.Int32
	stop    atomic.Bool
}

const spinBudget = 64

func newWorkerGroup(workers, chips int) *workerGroup {
	g := &workerGroup{chips: chips, workers: workers}
	for id := 1; id < workers; id++ {
		go g.loop(id)
	}
	return g
}

// run executes f(ci) for every chip and returns once all chips finished.
// The epoch increment publishes the task (the write to g.task
// happens-before the workers' acquire of the new epoch), and the arrived
// counter's final increment happens-before the coordinator's read of it, so
// all worker effects are visible when run returns.
func (g *workerGroup) run(f func(ci int)) {
	g.task = f
	g.arrived.Store(0)
	g.epoch.Add(1)
	for ci := 0; ci < g.chips; ci += g.workers {
		f(ci)
	}
	want := int32(g.workers - 1)
	spins := 0
	for g.arrived.Load() != want {
		if spins++; spins > spinBudget {
			runtime.Gosched()
		}
	}
}

func (g *workerGroup) loop(id int) {
	// Baseline at the creation epoch (0), not at whatever the epoch is when
	// this goroutine first gets scheduled: on a loaded or single-core
	// machine the coordinator's first run() can increment the epoch before
	// the worker starts, and loading the live value here would make the
	// worker skip that task while the coordinator waits forever.
	var seen uint32
	for {
		spins := 0
		for {
			if e := g.epoch.Load(); e != seen {
				seen = e
				break
			}
			if g.stop.Load() {
				return
			}
			if spins++; spins > spinBudget {
				runtime.Gosched()
			}
		}
		f := g.task
		for ci := id; ci < g.chips; ci += g.workers {
			f(ci)
		}
		g.arrived.Add(1)
	}
}

// close releases the worker goroutines. The group must be idle (no run in
// progress).
func (g *workerGroup) close() {
	g.stop.Store(true)
}
