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

// Sink receives messages that arrived at their destination chip. Offer either
// takes delivery of m at chip and returns true, or refuses it and returns
// false, which back-pressures the arrival: the ring holds the message and
// offers it again next cycle. A refusal must leave no trace.
type Sink interface {
	Offer(chip int, m Message) bool
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
	// links[chip][dir]: the directional link leaving chip in dir.
	links [][2]link

	// pending counts the messages held in an egress queue or on a wire.
	pending int
	// landDueBy[chip]: earliest due cycle over the two in-flight delay lines
	// leaving chip, -1 when both are empty. It lets Tick skip the landing
	// scan of chips with nothing due and NextEvent read one word per chip
	// instead of peeking every delay line.
	landDueBy []int64

	cfg      Config
	lastRef  int64 // cycle of the last bucket refill
	Arrivals int64
	msgs     int64 // link traversals launched (a 2-hop message counts twice)
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
		landDueBy: make([]int64, cfg.Chips),
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
	return r
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
	r.links[m.Src][m.dir].egress.Push(m)
	r.pending++
}

// Pending returns all messages queued or on the wire.
func (r *Ring) Pending() int { return r.pending }

// BytesMoved returns the bytes that entered any link.
func (r *Ring) BytesMoved() int64 {
	var n int64
	for c := range r.links {
		n += r.links[c][0].bytes + r.links[c][1].bytes
	}
	return n
}

// MsgsMoved returns the total link traversals (a 2-hop message counts twice).
func (r *Ring) MsgsMoved() int64 { return r.msgs }

// NextEvent returns the earliest future cycle at which the ring can make
// progress: now+1 while any egress queue holds a message (launch is
// bandwidth-gated per cycle), else the earliest in-flight landing, or -1
// when the ring is fully idle.
func (r *Ring) NextEvent(now int64) int64 {
	if r.pending == 0 {
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

// landDue derives chip c's earliest landing due from its two delay-line
// heads (-1 when both are empty): what landDueBy[c] caches, re-derived after
// the landing phase popped from them.
func (r *Ring) landDue(c int) int64 {
	due := int64(-1)
	if d, ok := r.links[c][0].inFlight.NextDue(); ok {
		due = d
	}
	if d, ok := r.links[c][1].inFlight.NextDue(); ok && (due < 0 || d < due) {
		due = d
	}
	return due
}

// CheckActivity verifies pending and landDueBy against the queues and wires
// they summarise. Invariant tests call it between simulated cycles; nothing
// else does.
func (r *Ring) CheckActivity() error {
	pending := 0
	for c := range r.links {
		for d := 0; d < 2; d++ {
			pending += r.links[c][d].egress.Len() + r.links[c][d].inFlight.Len()
		}
		if due := r.landDue(c); r.landDueBy[c] != due {
			return fmt.Errorf("xchip: chip %d landDueBy %d, wires say %d", c, r.landDueBy[c], due)
		}
	}
	if pending != r.pending {
		return fmt.Errorf("xchip: pending %d, links hold %d", r.pending, pending)
	}
	return nil
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
	if r.pending == 0 {
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
			for wire.HeadDue(now) {
				m, _ := wire.PopDue(now)
				at := r.next(c, dir)
				if at != m.Dst {
					r.links[at][d].egress.Push(m)
					continue
				}
				if !sink.Offer(at, m) {
					// Destination busy: retry next cycle from a zero-
					// latency in-flight slot (models an arrival buffer).
					wire.Insert(now, 1, m)
					break
				}
				r.Arrivals++
				r.pending--
			}
		}
		r.landDueBy[c] = r.landDue(c)
	}
	// Launch phase: move queued messages onto links, bandwidth permitting.
	dt := now - r.lastRef
	r.lastRef = now
	for c := 0; c < r.cfg.Chips; c++ {
		r.launchChip(now, dt, c)
	}
}

// launchChip advances chip c's directional buckets by dt and moves its
// queued messages onto the wire, bandwidth permitting.
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
			r.msgs++
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
