// Package sm models one streaming multiprocessor of the multi-chip GPU: a
// set of warps executing deterministic access streams over a private
// write-through L1, scheduled Greedy-Then-Oldest (GTO, Rogers et al. MICRO
// 2012): keep issuing from the current warp until it stalls, then fall back
// to the oldest ready warp.
//
// Loads that miss the L1 block their warp until the response returns;
// same-line misses from other warps of the SM merge into the outstanding
// entry (a per-SM miss file of at most one line per warp, scanned linearly).
// Stores are write-through and non-blocking. The package is timing-free: the
// owning cycle loop calls Issue once per cycle and Receive when responses
// arrive.
package sm

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// Config sizes one SM.
type Config struct {
	// Pool, when non-nil, supplies recycled Request objects; the owning
	// cycle loop retires them back at response delivery.
	Pool    *memsys.Pool
	Geom    memsys.Geometry
	Chip    int
	Index   int // SM index within the chip
	L1Lines int
	L1Ways  int
	Sectors int // effective LLC sectors (for the per-chip sector of requests)
}

// warp is one warp's execution state.
type warp struct {
	stream  workload.AccessStream
	next    workload.Access
	readyAt int64
	hasNext bool
	blocked bool
	done    bool
}

func (w *warp) fetch() {
	w.next, w.hasNext = w.stream.Next()
	if !w.hasNext {
		w.done = true
	}
}

// pendingLine is one outstanding load miss and its chain of blocked warps.
type pendingLine struct {
	line       uint64
	head, tail int32
}

// SM is one streaming multiprocessor.
type SM struct {
	l1    *cache.Cache
	warps []warp

	// Outstanding L1 load misses. A blocked warp waits on exactly one line
	// and cannot issue, so there are never more entries than warps: a small
	// array scanned linearly, sized with the warps in LoadStreams. Each
	// entry chains the warps blocked on its line, in merge order, through
	// waitNext (indexed by warp, -1 ends a chain).
	pending  []pendingLine
	waitNext []int32

	cfg    Config
	greedy int
	// runnable has bit i set exactly while warp i is neither done nor
	// blocked — the only warps the scheduler considers (hence MaxWarps).
	// Written wherever either flag changes: LoadStreams, advance, block,
	// Receive.
	runnable   uint64
	doneWarps  int
	sleepUntil int64 // no warp can issue before this cycle (scheduler skip hint)
}

// MaxWarps is the most warps one SM schedules: one bit each in the runnable
// word. gpu.Config.Validate bounds WarpsPerSM by it.
const MaxWarps = 64

// Never is the SleepUntil of an SM with no runnable warp: it cannot issue
// until a Receive unblocks one (or ever, once its kernel has retired).
const Never = int64(1) << 62

// New builds an SM.
func New(cfg Config) *SM {
	if cfg.L1Lines <= 0 || cfg.L1Ways <= 0 || cfg.L1Lines%cfg.L1Ways != 0 {
		panic("sm: invalid L1 geometry")
	}
	return &SM{
		cfg: cfg,
		l1: cache.New(cache.Config{
			Sets:      cfg.L1Lines / cfg.L1Ways,
			Ways:      cfg.L1Ways,
			LineBytes: cfg.Geom.LineBytes,
			// Write-through: WriteBack stays false.
		}),
	}
}

// Chip returns the SM's chip index.
func (s *SM) Chip() int { return s.cfg.Chip }

// Index returns the SM's index within its chip.
func (s *SM) Index() int { return s.cfg.Index }

// LoadStreams installs one access stream per warp for a kernel invocation.
func (s *SM) LoadStreams(streams []workload.AccessStream) {
	n := len(streams)
	if n > MaxWarps {
		panic(fmt.Sprintf("sm: %d warps exceed the %d the runnable word holds", n, MaxWarps))
	}
	if cap(s.warps) < n {
		s.warps = make([]warp, n)
		s.pending = make([]pendingLine, 0, n)
		s.waitNext = make([]int32, n)
	}
	s.warps = s.warps[:n]
	s.pending = s.pending[:0]
	s.doneWarps = 0
	s.runnable = 0
	for i, st := range streams {
		s.warps[i] = warp{stream: st}
		s.warps[i].fetch()
		if s.warps[i].done {
			s.doneWarps++
		} else {
			s.runnable |= 1 << uint(i)
		}
	}
	s.greedy = 0
	s.sleepUntil = 0
	s.parkIfDone()
}

// findPending returns the index of line's entry in the miss file, or -1.
func (s *SM) findPending(line uint64) int {
	for i := range s.pending {
		if s.pending[i].line == line {
			return i
		}
	}
	return -1
}

// KernelDone reports whether every warp retired and no loads are in flight.
func (s *SM) KernelDone() bool { return s.doneWarps == len(s.warps) && len(s.pending) == 0 }

// Outstanding returns the number of distinct outstanding load lines.
func (s *SM) Outstanding() int { return len(s.pending) }

// SleepUntil returns the earliest cycle any warp may issue (a scheduling
// hint; the cycle loop may skip the SM before it, and an idle machine
// fast-forwards to it): a cycle at or before now while a warp may be ready,
// the wakeup cycle when all are waiting out compute gaps, Never when nothing
// can happen without a Receive — every live warp blocked on a load, as of
// the last failed Issue — or at all: a retired SM parks.
func (s *SM) SleepUntil() int64 { return s.sleepUntil }

// parkIfDone puts the SM to sleep for good once its kernel has retired.
func (s *SM) parkIfDone() {
	if s.KernelDone() {
		s.sleepUntil = Never
	}
}

// CheckRunnable verifies the runnable word against the warps' own flags.
// Invariant tests call it between simulated cycles; nothing else does.
func (s *SM) CheckRunnable() error {
	var want uint64
	for i := range s.warps {
		if w := &s.warps[i]; !w.done && !w.blocked {
			want |= 1 << uint(i)
		}
	}
	if s.runnable != want {
		return fmt.Errorf("sm %d/%d: runnable %b, warps say %b", s.cfg.Chip, s.cfg.Index, s.runnable, want)
	}
	return nil
}

// FlushL1 invalidates the L1 (software coherence at kernel boundaries).
func (s *SM) FlushL1() { s.l1.FlushAll() }

// L1 exposes the private cache (tests and the occupancy census).
func (s *SM) L1() *cache.Cache { return s.l1 }

// L1Stats returns the L1 hit/miss counters.
func (s *SM) L1Stats() (hits, misses int64) { return s.l1.Hits, s.l1.Misses }

// pickWarp applies GTO: the current warp while it can issue, else the
// oldest (lowest index) ready warp. When no warp can issue it returns -1 and
// the cycle the earliest runnable warp becomes ready — Never, without
// touching a warp, when every live warp is blocked.
func (s *SM) pickWarp(now int64) (wi int, wake int64) {
	run := s.runnable
	if run>>uint(s.greedy)&1 != 0 && s.warps[s.greedy].readyAt <= now {
		return s.greedy, 0
	}
	wake = Never
	for ; run != 0; run &= run - 1 {
		i := bits.TrailingZeros64(run)
		at := s.warps[i].readyAt
		if at <= now {
			s.greedy = i
			return i, 0
		}
		if at < wake {
			wake = at
		}
	}
	return -1, wake
}

// IssueResult describes what the SM did in one cycle.
type IssueResult struct {
	Req     *memsys.Request // non-nil when a request must enter the NoC
	Warp    int
	L1Hit   bool
	IsWrite bool
	Issued  bool
	Merged  bool // load miss merged into an outstanding same-SM miss
}

// Issue attempts to issue one memory access at cycle now. canInject reports
// whether the SM's NoC port accepts a new request this cycle; accesses that
// need the NoC retry next cycle when it is full.
func (s *SM) Issue(now int64, canInject bool) IssueResult {
	if now < s.sleepUntil {
		return IssueResult{}
	}
	wi, wake := s.pickWarp(now)
	if wi < 0 {
		// Record when the next unblocked warp becomes ready so the cycle
		// loop can skip this SM until then (Receive lowers the hint).
		s.sleepUntil = wake
		return IssueResult{}
	}
	w := &s.warps[wi]
	acc := w.next

	if acc.Kind == memsys.Read {
		// Probe first and count the access only once it goes through: a load
		// miss the NoC port refuses retries every cycle and must not be
		// re-counted.
		way := s.l1.FindLine(acc.Line)
		pi := -1
		if way < 0 {
			if pi = s.findPending(acc.Line); pi < 0 && !canInject {
				return IssueResult{}
			}
		}
		switch {
		case s.l1.CommitLookup(way, 0):
			w.readyAt = now + int64(acc.Gap) + 1
			s.advance(wi)
			return IssueResult{Issued: true, L1Hit: true, Warp: wi}
		case pi >= 0:
			p := &s.pending[pi]
			s.waitNext[p.tail] = int32(wi)
			s.waitNext[wi] = -1
			p.tail = int32(wi)
			s.block(wi)
			return IssueResult{Issued: true, Warp: wi, Merged: true}
		}
		req := s.newRequest(memsys.Read, acc.Line, now)
		s.pending = append(s.pending, pendingLine{line: acc.Line, head: int32(wi), tail: int32(wi)})
		s.waitNext[wi] = -1
		s.block(wi)
		return IssueResult{Req: req, Issued: true, Warp: wi}
	}

	// Write-through, no-allocate, non-blocking store.
	if !canInject {
		return IssueResult{}
	}
	req := s.newRequest(memsys.Write, acc.Line, now)
	w.readyAt = now + int64(acc.Gap) + 1
	s.advance(wi)
	return IssueResult{Req: req, Issued: true, IsWrite: true, Warp: wi}
}

// advance moves warp wi to its next access; a warp whose stream ended
// retires (possibly while blocked on its last load).
func (s *SM) advance(wi int) {
	w := &s.warps[wi]
	w.fetch()
	if w.done {
		s.doneWarps++
		s.runnable &^= 1 << uint(wi)
		s.parkIfDone()
	}
}

// block parks warp wi on the load it just issued or merged, then advances it.
func (s *SM) block(wi int) {
	s.warps[wi].blocked = true
	s.runnable &^= 1 << uint(wi)
	s.advance(wi)
}

func (s *SM) newRequest(kind memsys.AccessKind, line uint64, now int64) *memsys.Request {
	var req *memsys.Request
	if s.cfg.Pool != nil {
		req = s.cfg.Pool.Get()
	} else {
		req = &memsys.Request{}
	}
	req.Kind = kind
	req.Line = line
	req.Sector = ChipSector(line, s.cfg.Chip, s.cfg.Sectors)
	req.SrcChip = s.cfg.Chip
	req.SrcSM = s.cfg.Index
	req.IssueCycle = now
	return req
}

// Receive delivers a load response: fill the L1, unblock every warp that
// merged on the line (none, when no warp waits on it). Each unblocked warp
// waits out the compute gap of its next access before issuing again.
func (s *SM) Receive(now int64, req *memsys.Request) (unblocked int) {
	s.l1.Fill(req.Line, 0, cache.PartAll, req.SrcChip != req.HomeChip)
	pi := s.findPending(req.Line)
	if pi < 0 {
		return 0
	}
	wi := s.pending[pi].head
	last := len(s.pending) - 1
	s.pending[pi] = s.pending[last]
	s.pending = s.pending[:last]
	for ; wi >= 0; wi = s.waitNext[wi] {
		w := &s.warps[wi]
		w.blocked = false
		if !w.done {
			s.runnable |= 1 << uint(wi)
		}
		w.readyAt = now + 1
		if w.hasNext {
			w.readyAt += int64(w.next.Gap)
		}
		if w.readyAt < s.sleepUntil {
			s.sleepUntil = w.readyAt
		}
		unblocked++
	}
	s.parkIfDone()
	return unblocked
}

// ChipSector returns the sector of a line that a given chip touches. Under
// sectored caches different chips touch different sectors of a shared line,
// which converts line-granular true sharing into sector-granular false
// sharing — the effect the paper's sectored-cache sensitivity measures.
func ChipSector(line uint64, chip, sectors int) int {
	if sectors <= 1 {
		return 0
	}
	return int(addr.Mix64(line^uint64(chip)*0x9e37) % uint64(sectors))
}
