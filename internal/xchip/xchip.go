// Package xchip models the inter-chip interconnect of the multi-chip GPU:
// a bidirectional ring (the paper's baseline: 4 chips, 3 NVLink-style links
// per neighbour pair, 96 GB/s per direction per pair at full scale).
// Messages hop neighbour to neighbour; each hop is gated by the directional
// link's bandwidth and charged a fixed link latency. Non-adjacent chips
// (distance 2 on a 4-ring) route via the shorter side, with ties broken by a
// deterministic hash of the line address so that opposite-chip traffic uses
// both directions evenly.
package xchip

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/bwsim"
	"repro/internal/memsys"
)

// Direction of travel around the ring.
type Direction uint8

const (
	// CW moves from chip i to chip (i+1) mod N.
	CW Direction = iota
	// CCW moves from chip i to chip (i-1) mod N.
	CCW
)

// Message is a unit in flight on the ring.
type Message struct {
	Req   *memsys.Request
	Src   int
	Dst   int
	Bytes int
	dir   Direction
}

// Sink receives messages that arrived at their destination chip.
type Sink interface {
	// CanAccept lets the destination chip back-pressure arrivals.
	CanAccept(chip int, m Message) bool
	// Accept delivers an arrived message.
	Accept(chip int, m Message)
}

// Config sizes the ring.
type Config struct {
	Chips      int
	LinkBW     float64 // bytes/cycle per neighbour pair per direction
	HopLatency int64   // cycles per hop (serialization + wire)
	QueueBound int     // per-link egress queue back-pressure threshold
}

// link is one directional link, its primitives held by value in one record:
// the egress queue of messages waiting to enter it, the bandwidth bucket
// that gates them, and the wire (messages in flight toward the next chip).
type link struct {
	egress   bwsim.Queue[Message]
	inFlight bwsim.DelayLine[Message]
	bkt      bwsim.TokenBucket
	// scale is the link's residual health (1 = healthy, 0 = dead); fault
	// injection degrades links mid-run.
	scale float64
	// bytes that entered the link (the per-link breakdown of BytesMoved;
	// utilization metrics window it).
	bytes int64
}

// Ring is the inter-chip network.
type Ring struct {
	lanes []Lane
	// links[chip][dir]: the directional link leaving chip in dir.
	links [][2]link

	// pendingBy[chip]: messages held in chip's egress queues or on the wire
	// leaving chip. Partitioned by holding chip so that the fused-epoch
	// launch path (FusedLaunch, one goroutine per chip) mutates only its own
	// counter; Pending sums the partition.
	pendingBy []int32
	// landDueBy[chip]: earliest due cycle over the two in-flight delay lines
	// leaving chip, -1 when both are empty. Partitioned by launching chip
	// for the same reason as pendingBy; it lets Tick skip the landing scan
	// of chips with nothing due and NextLanding read 1 word per chip instead
	// of peeking every delay line.
	landDueBy []int64

	// Stats. Counters mutated on the per-chip launch path are partitioned by
	// chip (msgsBy, injectsBy, link.bytes); the landing-phase counters stay
	// scalar because landings only ever run serially in Tick.
	msgsBy    []int64 // link traversals launched by each chip
	injectsBy []int64 // Inject calls per source chip (monotone, for StateSig)
	// advanced[chip] marks chips whose buckets already caught up this fused
	// cycle; FinishFused settles the rest and clears the marks.
	advanced []bool

	cfg      Config
	lastRef  int64 // cycle of the last bucket refill
	Arrivals int64
	hopped   int64 // intermediate-hop re-queues (monotone, for StateSig)
	refused  int64 // refused deliveries re-inserted (monotone, for StateSig)
}

// New returns an idle ring.
func New(cfg Config) *Ring {
	if cfg.Chips < 2 || cfg.LinkBW <= 0 {
		panic(fmt.Sprintf("xchip: invalid config %+v", cfg))
	}
	if cfg.HopLatency < 1 {
		cfg.HopLatency = 1
	}
	r := &Ring{
		cfg:       cfg,
		links:     make([][2]link, cfg.Chips),
		pendingBy: make([]int32, cfg.Chips),
		landDueBy: make([]int64, cfg.Chips),
		msgsBy:    make([]int64, cfg.Chips),
		injectsBy: make([]int64, cfg.Chips),
		advanced:  make([]bool, cfg.Chips),
	}
	for c := 0; c < cfg.Chips; c++ {
		r.landDueBy[c] = -1
		for d := 0; d < 2; d++ {
			r.links[c][d] = link{
				egress:   bwsim.NewQueue[Message](cfg.QueueBound),
				inFlight: bwsim.NewDelayLine[Message](),
				bkt:      bwsim.NewBucket(cfg.LinkBW),
				scale:    1,
			}
		}
	}
	r.lanes = make([]Lane, cfg.Chips)
	for c := range r.lanes {
		r.lanes[c] = Lane{r: r, chip: c}
	}
	return r
}

// Lane is chip's staged view of the ring, for phase-parallel cycle loops
// that tick chips concurrently. A Lane's Inject appends to a private
// per-direction buffer instead of touching shared ring state, and its
// CanInject answers exactly what Ring.CanInject would answer had the staged
// messages already been pushed — so back-pressure decisions match a serial
// execution. Flush replays the buffers through Ring.Inject in staging
// order; since each egress queue is per (source chip, direction) and a lane
// only ever stages messages sourced at its own chip, flushing lanes in chip
// index order reproduces the serial loop's egress-queue contents exactly.
//
// Each goroutine must use only its own chip's Lane, and Flush must only be
// called from the coordinating goroutine between parallel phases.
func (r *Ring) Lane(chip int) *Lane { return &r.lanes[chip] }

// Lane stages ring injections for one chip. See Ring.Lane.
type Lane struct {
	r      *Ring
	staged [2][]Message
	chip   int
}

// CanInject reports whether the lane's chip has egress queue space toward
// dst, counting messages already staged this phase as occupying slots.
func (l *Lane) CanInject(dst int, line uint64) bool {
	d := l.r.route(l.chip, dst, line)
	b := l.r.cfg.QueueBound
	return b <= 0 || l.r.links[l.chip][d].egress.Len()+len(l.staged[d]) < b
}

// Inject stages a message sourced at the lane's chip.
func (l *Lane) Inject(m Message) {
	if m.Src != l.chip {
		panic(fmt.Sprintf("xchip: lane %d injection from chip %d", l.chip, m.Src))
	}
	d := l.r.route(m.Src, m.Dst, m.Req.Line)
	l.staged[d] = append(l.staged[d], m)
}

// Staged returns the number of messages waiting in the lane.
func (l *Lane) Staged() int { return len(l.staged[0]) + len(l.staged[1]) }

// Flush replays the staged messages into the ring in staging order and
// empties the lane (buffers are retained for reuse).
func (l *Lane) Flush() {
	for d := range l.staged {
		for i := range l.staged[d] {
			l.r.Inject(l.staged[d][i])
			l.staged[d][i] = Message{}
		}
		l.staged[d] = l.staged[d][:0]
	}
}

// Cfg returns the ring's configuration.
func (r *Ring) Cfg() Config { return r.cfg }

// SetLinkBW reconfigures the per-direction link bandwidth (sensitivity
// sweeps). Per-link degradation scales are preserved.
func (r *Ring) SetLinkBW(bw float64) {
	r.cfg.LinkBW = bw
	for c := range r.links {
		for d := 0; d < 2; d++ {
			l := &r.links[c][d]
			l.bkt.SetRate(bw * l.scale)
		}
	}
}

// SetLinkScale degrades (or heals) the directional link leaving chip in
// direction dir to scale of its configured bandwidth. Scale 0 is a full
// outage: queued messages stay queued and back-pressure propagates to the
// injecting chips. In-flight hops land normally (the wire is not cut).
func (r *Ring) SetLinkScale(chip int, dir Direction, scale float64) {
	if chip < 0 || chip >= r.cfg.Chips || dir > CCW {
		panic(fmt.Sprintf("xchip: no link %d/%v", chip, dir))
	}
	if scale < 0 {
		scale = 0
	} else if scale > 1 {
		scale = 1
	}
	r.links[chip][dir].scale = scale
	r.links[chip][dir].bkt.SetRate(r.cfg.LinkBW * scale)
}

// LinkScale returns the current residual scale of a link.
func (r *Ring) LinkScale(chip int, dir Direction) float64 { return r.links[chip][dir].scale }

// LinkBytes returns the total bytes that have entered the directional link
// leaving chip in dir; windowed deltas give link utilization.
func (r *Ring) LinkBytes(chip int, dir Direction) int64 { return r.links[chip][dir].bytes }

// LinkQueueLen returns the instantaneous egress-queue depth of a link.
func (r *Ring) LinkQueueLen(chip int, dir Direction) int { return r.links[chip][dir].egress.Len() }

// route picks the travel direction from src to dst: shortest path, hash tie-break.
func (r *Ring) route(src, dst int, line uint64) Direction {
	n := r.cfg.Chips
	cw := (dst - src + n) % n
	ccw := (src - dst + n) % n
	switch {
	case cw < ccw:
		return CW
	case ccw < cw:
		return CCW
	default: // equidistant (opposite chip on an even ring)
		if addr.Mix64(line)&1 == 0 {
			return CW
		}
		return CCW
	}
}

// Hops returns the number of link traversals between two chips.
func (r *Ring) Hops(src, dst int) int {
	n := r.cfg.Chips
	cw := (dst - src + n) % n
	ccw := (src - dst + n) % n
	return min(cw, ccw)
}

// CanInject reports whether chip src has egress queue space toward dst.
func (r *Ring) CanInject(src, dst int, line uint64) bool {
	return !r.links[src][r.route(src, dst, line)].egress.Full()
}

// Inject places a message on the ring at its source chip.
func (r *Ring) Inject(m Message) {
	if m.Src == m.Dst {
		panic("xchip: message injected with src == dst")
	}
	m.dir = r.route(m.Src, m.Dst, m.Req.Line)
	m.Req.CrossedRing = true
	r.links[m.Src][m.dir].egress.Push(m)
	r.pendingBy[m.Src]++
	r.injectsBy[m.Src]++
}

// Pending returns all messages queued or on the wire.
func (r *Ring) Pending() int {
	n := int32(0)
	for _, p := range r.pendingBy {
		n += p
	}
	return int(n)
}

// BytesMoved returns the bytes that entered any link.
func (r *Ring) BytesMoved() int64 {
	var n int64
	for c := range r.links {
		n += r.links[c][0].bytes + r.links[c][1].bytes
	}
	return n
}

// MsgsMoved returns the total link traversals (a 2-hop message counts twice).
func (r *Ring) MsgsMoved() int64 {
	var n int64
	for _, m := range r.msgsBy {
		n += m
	}
	return n
}

// Injects returns the total Inject calls since construction (monotone).
func (r *Ring) Injects() int64 {
	var n int64
	for _, i := range r.injectsBy {
		n += i
	}
	return n
}

// StateSig is a monotone signature that changes whenever any ring state
// mutation could move NextEvent earlier: injections, launches, intermediate
// hops, refused deliveries, and arrivals all bump at least one term. Event
// schedulers cache it to detect staleness of a memoized NextEvent.
func (r *Ring) StateSig() int64 {
	return r.Injects() + r.MsgsMoved() + r.Arrivals + r.hopped + r.refused
}

// NextEvent returns the earliest future cycle at which the ring can make
// progress: now+1 while any egress queue holds a message (launch is
// bandwidth-gated per cycle), else the earliest in-flight landing, or -1
// when the ring is fully idle.
func (r *Ring) NextEvent(now int64) int64 {
	if r.Pending() == 0 {
		return -1
	}
	next := int64(-1)
	for c := 0; c < r.cfg.Chips; c++ {
		if !r.links[c][0].egress.Empty() || !r.links[c][1].egress.Empty() {
			return now + 1
		}
		if due := r.landDueBy[c]; due >= 0 {
			if due <= now {
				// A refused delivery can leave later messages of the
				// same link undrained this cycle; they land next cycle.
				return now + 1
			}
			if next < 0 || due < next {
				next = due
			}
		}
	}
	return next
}

// NextLanding returns the earliest in-flight landing cycle, or -1 when
// nothing is on the wire. Unlike NextEvent it ignores egress queues: a fused
// multi-cycle epoch only needs to know when a message can *arrive* at
// another chip, because launches are per-source-chip local.
func (r *Ring) NextLanding() int64 {
	next := int64(-1)
	for c := 0; c < r.cfg.Chips; c++ {
		if due := r.landDueBy[c]; due >= 0 && (next < 0 || due < next) {
			next = due
		}
	}
	return next
}

// recomputeLandDue re-derives chip c's cached earliest landing due from its
// two delay-line heads, after the landing phase popped from them.
func (r *Ring) recomputeLandDue(c int) {
	due := int64(-1)
	if d, ok := r.links[c][0].inFlight.NextDue(); ok {
		due = d
	}
	if d, ok := r.links[c][1].inFlight.NextDue(); ok && (due < 0 || d < due) {
		due = d
	}
	r.landDueBy[c] = due
}

func (r *Ring) next(chip int, d Direction) int {
	if d == CW {
		return (chip + 1) % r.cfg.Chips
	}
	return (chip - 1 + r.cfg.Chips) % r.cfg.Chips
}

// Tick advances the ring one cycle. now is the global cycle counter.
// An idle ring returns immediately; link credit catches up lazily.
func (r *Ring) Tick(now int64, sink Sink) {
	if r.Pending() == 0 {
		r.lastRef = now
		return
	}
	// Landing phase: messages whose hop latency elapsed arrive at the next
	// chip — either delivered, or queued for the next hop.
	for c := 0; c < r.cfg.Chips; c++ {
		if due := r.landDueBy[c]; due < 0 || due > now {
			continue // nothing leaving chip c lands this cycle
		}
		for d := 0; d < 2; d++ {
			dir := Direction(d)
			wire := &r.links[c][d].inFlight
			for {
				m, ok := wire.PopDue(now)
				if !ok {
					break
				}
				at := r.next(c, dir)
				if at == m.Dst {
					if sink.CanAccept(at, m) {
						sink.Accept(at, m)
						r.Arrivals++
						r.pendingBy[c]--
					} else {
						// Destination busy: retry next cycle from a zero-
						// latency in-flight slot (models an arrival buffer).
						wire.Insert(now, 1, m)
						r.refused++
						break
					}
				} else {
					r.links[at][d].egress.Push(m)
					r.pendingBy[c]--
					r.pendingBy[at]++
					r.hopped++
				}
			}
		}
		r.recomputeLandDue(c)
	}
	// Launch phase: move queued messages onto links, bandwidth permitting.
	dt := now - r.lastRef
	r.lastRef = now
	for c := 0; c < r.cfg.Chips; c++ {
		r.launchChip(now, dt, c)
	}
}

// launchChip advances chip c's directional buckets by dt and moves its
// queued messages onto the wire, bandwidth permitting. It touches only
// per-chip state (the two links and msgsBy of chip c), which is
// what makes FusedLaunch safe to run from per-chip goroutines.
func (r *Ring) launchChip(now, dt int64, c int) {
	launched := false
	for d := 0; d < 2; d++ {
		l := &r.links[c][d]
		bkt, q := &l.bkt, &l.egress
		if q.Empty() {
			// Advance on an at-cap bucket only clamps; skipping it leaves the
			// exact credit value the old eager refill would have left.
			if !bkt.AtCap() {
				bkt.Advance(dt)
			}
			continue
		}
		bkt.Advance(dt)
		for bkt.CanTake() {
			m, ok := q.Pop()
			if !ok {
				break
			}
			bkt.Take(m.Bytes)
			l.bytes += int64(m.Bytes)
			r.msgsBy[c]++
			l.inFlight.Insert(now, r.cfg.HopLatency, m)
			launched = true
		}
	}
	if launched {
		// Launches due at now+HopLatency can only lower an empty line's due:
		// anything already on the wire left earlier with the same hop
		// latency, except zero-latency refused-delivery retries, which are
		// earlier still — the min-update covers every case.
		if due := now + r.cfg.HopLatency; r.landDueBy[c] < 0 || due < r.landDueBy[c] {
			r.landDueBy[c] = due
		}
	}
}

// FusedLaunch runs the launch phase for one chip from inside a fused
// multi-cycle epoch, where per-chip goroutines tick their chip without a
// global ring Tick. Callers must guarantee no landing is due at or before
// now (NextLanding() < 0 || > now) — then the landing phase is a no-op and
// launches are independent per source chip.
//
// force preserves the serial idle-forfeit semantics: serial Tick advances
// every bucket whenever global Pending() > 0 and forfeits accrual (lastRef
// = now without Advance) when it is 0. The coordinator passes force =
// (Pending() > 0) as observed before the parallel phase; chips whose egress
// is empty then still catch their buckets up iff force. Chips left
// unadvanced are settled by FinishFused, which recomputes global pending
// after all lanes flushed — together reproducing exactly the serial
// advance-or-forfeit decision.
func (r *Ring) FusedLaunch(now int64, chip int, force bool) {
	if !force && r.links[chip][0].egress.Empty() && r.links[chip][1].egress.Empty() {
		return
	}
	r.advanced[chip] = true
	r.launchChip(now, now-r.lastRef, chip)
}

// FinishFused completes a fused cycle from the coordinating goroutine after
// every chip's FusedLaunch returned: chips that skipped their bucket
// advance catch up iff the ring is still non-idle (matching serial Tick's
// advance-all-or-forfeit rule), and lastRef moves to now.
func (r *Ring) FinishFused(now int64) {
	if r.Pending() > 0 {
		dt := now - r.lastRef
		for c := 0; c < r.cfg.Chips; c++ {
			if !r.advanced[c] {
				r.links[c][0].bkt.Advance(dt)
				r.links[c][1].bkt.Advance(dt)
			}
			r.advanced[c] = false
		}
	} else {
		for c := range r.advanced {
			r.advanced[c] = false
		}
	}
	r.lastRef = now
}
