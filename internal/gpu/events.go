package gpu

// Next-event scheduling for fastForward. The system's idle-skip decision
// needs the earliest future cycle at which any component can make progress.
// The previous implementation recomputed every component's NextEvent with a
// linear scan per call; this one keeps a min-heap of per-source next-event
// keys and only recomputes a source when it may have changed.
//
// Sources (1 ring + 5 per chip):
//
//	ring     — the inter-chip ring (xchip.Ring.NextEvent)
//	mem      — the chip's DRAM partition
//	reqNet   — the chip's request crossbar
//	respNet  — the chip's response crossbar
//	pipes    — the chip's LLC slices: lookup queues + hit-latency pipelines
//	warps    — the chip's SMs: earliest warp wakeup
//
// Invariant: a cached key may be a *stale lower bound* (the real event moved
// later or vanished — it is revalidated when it reaches the top of the
// heap), but it must never sit *above* the source's true next event. Every
// mutation that can move a source's next event EARLIER therefore bumps a
// monotone signature counter (dram.Partition.Enqueues, noc.Crossbar.Injects,
// xchip.Ring.StateSig, chip.pipeSig, chip.warpSig), and fastForward
// refreshes the key of any source whose signature changed before trusting
// the heap minimum. Mutations that only move events later (draining a
// queue, popping a delay line) need no bump: the stale key is then at or
// below the true event, the heap min is still a valid lower bound, and
// pop-revalidation corrects it. Keys clamped to now+1 ("may act next
// cycle") are always safe: they can only cause a no-skip, never an
// over-skip.
type eventHeap struct {
	key []int64 // cached next-event cycle per source (-1 = idle, absent)
	sig []int64 // source signature at the time key was computed
	pos []int32 // heap index per source (-1 = absent)
	h   []int32 // min-heap of source ids ordered by key
}

func (e *eventHeap) init(n int) {
	e.key = make([]int64, n)
	e.sig = make([]int64, n)
	e.pos = make([]int32, n)
	e.h = e.h[:0]
	for i := range e.key {
		e.key[i] = -1
		e.sig[i] = -1 // no signature is negative, so every source starts dirty
		e.pos[i] = -1
	}
}

// set updates source src's key: inserting, re-keying, or (key < 0)
// removing it.
func (e *eventHeap) set(src int, key int64) {
	p := e.pos[src]
	e.key[src] = key
	switch {
	case key < 0:
		if p >= 0 { // remove
			last := e.h[len(e.h)-1]
			e.h = e.h[:len(e.h)-1]
			e.pos[src] = -1
			if int(p) < len(e.h) {
				e.h[p] = last
				e.pos[last] = p
				e.siftDown(int(p))
				e.siftUp(int(p))
			}
		}
	case p < 0: // insert
		e.pos[src] = int32(len(e.h))
		e.h = append(e.h, int32(src))
		e.siftUp(len(e.h) - 1)
	default: // re-key in place
		e.siftDown(int(p))
		e.siftUp(int(e.pos[src]))
	}
}

// min returns the source with the smallest key, without removing it.
func (e *eventHeap) min() (src int, key int64, ok bool) {
	if len(e.h) == 0 {
		return 0, 0, false
	}
	s := e.h[0]
	return int(s), e.key[s], true
}

func (e *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if e.key[e.h[parent]] <= e.key[e.h[i]] {
			return
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *eventHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(e.h) && e.key[e.h[l]] < e.key[e.h[m]] {
			m = l
		}
		if r < len(e.h) && e.key[e.h[r]] < e.key[e.h[m]] {
			m = r
		}
		if m == i {
			return
		}
		e.swap(i, m)
		i = m
	}
}

func (e *eventHeap) swap(i, j int) {
	e.h[i], e.h[j] = e.h[j], e.h[i]
	e.pos[e.h[i]] = int32(i)
	e.pos[e.h[j]] = int32(j)
}

// Source id layout: 0 = ring, then 5 consecutive ids per chip.
const (
	srcRing       = 0
	srcsPerChip   = 5
	srcOffMem     = 0
	srcOffReqNet  = 1
	srcOffRespNet = 2
	srcOffPipes   = 3
	srcOffWarps   = 4
)

func (s *System) eventSourceCount() int { return 1 + srcsPerChip*len(s.chips) }

// resetEvents (re)builds the heap from scratch — called at kernel start,
// after LoadStreams reset every SM's wakeup hint.
func (s *System) resetEvents() {
	n := s.eventSourceCount()
	if len(s.events.key) != n {
		s.events.init(n)
		return
	}
	for src := 0; src < n; src++ {
		s.events.sig[src] = -1
		s.events.set(src, -1)
	}
}

// sourceSig returns the source's monotone earlier-mover signature.
func (s *System) sourceSig(src int) int64 {
	if src == srcRing {
		return s.ring.StateSig()
	}
	c := s.chips[(src-1)/srcsPerChip]
	switch (src - 1) % srcsPerChip {
	case srcOffMem:
		return c.mem.Enqueues
	case srcOffReqNet:
		return c.reqNet.Injects
	case srcOffRespNet:
		return c.respNet.Injects
	case srcOffPipes:
		return c.pipeSig
	default:
		return c.warpSig
	}
}

// sourceNext recomputes the source's true next-event cycle at s.now.
func (s *System) sourceNext(src int) int64 {
	if src == srcRing {
		return s.ring.NextEvent(s.now)
	}
	c := s.chips[(src-1)/srcsPerChip]
	switch (src - 1) % srcsPerChip {
	case srcOffMem:
		return c.mem.NextEvent(s.now)
	case srcOffReqNet:
		return c.reqNet.NextEvent(s.now)
	case srcOffRespNet:
		return c.respNet.NextEvent(s.now)
	case srcOffPipes:
		return pipesNext(c, s.now)
	default:
		return warpsNext(c, s.now)
	}
}

// pipesNext is the next-event source over one chip's LLC slices: now+1
// while any lookup queue holds a request (lookups are bandwidth-gated per
// cycle), else the earliest hit-pipeline completion, or -1 when all idle.
func pipesNext(c *chip, now int64) int64 {
	if c.sliceBusy != 0 {
		return now + 1
	}
	if due, ok := c.hitDelay.NextDue(); ok {
		return due
	}
	return -1
}

// warpsNext is the next-event source over one chip's SMs: the earliest
// cycle any warp may issue, or -1 when every SM is retired or blocked on
// outstanding loads (deliverToSM bumps warpSig when those return).
func warpsNext(c *chip, now int64) int64 {
	next := int64(-1)
	for _, smu := range c.sms {
		t := smu.NextEvent(now)
		if t < 0 {
			continue
		}
		if t <= now+1 {
			return now + 1
		}
		if next < 0 || t < next {
			next = t
		}
	}
	return next
}
