// Package noc models the intra-chip concentrated crossbar network of one
// GPU chip. The paper's baseline is a 38x22 crossbar per chip: 32 SM-cluster
// ports plus 6 inter-chip-link ports on the input side, 16 LLC-slice ports
// plus 6 inter-chip-link ports on the output side, with separate request and
// response networks.
//
// The crossbar here is policy-free: the chip decides each message's output
// port according to the active LLC organization (that is exactly the
// "configurable routing policy" SAC toggles) and the crossbar moves messages
// under per-port bandwidth with round-robin arbitration across input ports.
// An input queue whose head is blocked (no credit at its output port, or the
// sink refuses delivery) blocks — input-queued switch semantics.
package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/bwsim"
	"repro/internal/memsys"
)

// Message is a routed unit: a request plus its crossbar ports and wire cost.
type Message struct {
	Req   *memsys.Request
	In    int // input port index
	Out   int // output port index
	Bytes int // wire cost on this network
}

// Config sizes a crossbar.
type Config struct {
	InPorts      int
	OutPorts     int
	InBW         float64 // bytes/cycle per input port
	OutBW        float64 // bytes/cycle per output port
	IngressBound int     // per-input-queue back-pressure threshold (0 = unbounded)
}

// Sink receives messages leaving the crossbar. Offer either takes delivery of
// a message at output port out — its request and wire cost — and returns
// true, or refuses it and returns false, which back-pressures the port: the
// message stays at the head of its input queue and is offered again next
// cycle. A refusal must leave no trace.
type Sink interface {
	Offer(out int, req *memsys.Request, bytes int) bool
}

// inPort is one input port: its ingress queue and bandwidth bucket held by
// value in one record. adv is the cycle the bucket last accrued credit to:
// buckets accrue lazily — only when a Tick actually consults them — which is
// exact because refill is linear-with-cap at a rate fixed for the crossbar's
// life, so deferred accrual composes.
type inPort struct {
	queue bwsim.Queue[Message]
	bkt   bwsim.TokenBucket
	adv   int64
}

// outPort is one output port's bandwidth bucket and its lazy-accrual mark.
type outPort struct {
	bkt bwsim.TokenBucket
	adv int64
}

// Crossbar is one network (request or response) of one chip.
type Crossbar struct {
	in      []inPort
	out     []outPort
	cfg     Config
	rr      int // round-robin pointer over input ports
	pending int // queued messages across all input ports
	// nonEmpty is a bitmask of input ports with queued messages (bit i =
	// port i), valid when InPorts <= 64. Tick walks its set bits in
	// round-robin order instead of scanning every port; the bits it skips
	// are exactly the ports the linear scan would have found empty, so
	// arbitration order is unchanged. wide marks a crossbar with more input
	// ports than the word names (160 SMs per chip is a valid configuration):
	// its Tick scans every port (a field, not a test of InPorts, so
	// TestCrossbarWidePortsMatchMask can run both walks over one shape).
	nonEmpty uint64
	wide     bool

	// Stats.
	BytesMoved   int64
	MsgsMoved    int64
	BlockedCycle int64 // cycles in which at least one head-of-line was blocked
}

// New returns an idle crossbar.
func New(cfg Config) *Crossbar {
	if cfg.InPorts <= 0 || cfg.OutPorts <= 0 {
		panic(fmt.Sprintf("noc: invalid config %+v", cfg))
	}
	x := &Crossbar{
		in:  make([]inPort, cfg.InPorts),
		out: make([]outPort, cfg.OutPorts),
	}
	for i := range x.in {
		x.in[i].queue = bwsim.NewQueue[Message](cfg.IngressBound)
	}
	x.Reset(cfg)
	return x
}

// Reset returns the crossbar to the state New(cfg) builds, keeping its queue
// buffers. cfg must have the port counts the crossbar was built with.
func (x *Crossbar) Reset(cfg Config) {
	if cfg.InPorts != len(x.in) || cfg.OutPorts != len(x.out) || cfg.InBW <= 0 || cfg.OutBW <= 0 {
		panic(fmt.Sprintf("noc: config %+v does not fit a %dx%d crossbar", cfg, len(x.in), len(x.out)))
	}
	*x = Crossbar{cfg: cfg, in: x.in, out: x.out, wide: cfg.InPorts > 64}
	for i := range x.in {
		q := x.in[i].queue
		q.Reset(cfg.IngressBound)
		x.in[i] = inPort{queue: q, bkt: bwsim.NewBucket(cfg.InBW)}
	}
	for o := range x.out {
		x.out[o] = outPort{bkt: bwsim.NewBucket(cfg.OutBW)}
	}
}

// CanInject reports whether input port in has queue space.
func (x *Crossbar) CanInject(in int) bool { return !x.in[in].queue.Full() }

// Inject enqueues a message at its input port. Producers should honor
// CanInject; injection always succeeds so in-flight messages are never lost.
func (x *Crossbar) Inject(m Message) {
	if m.In < 0 || m.In >= x.cfg.InPorts || m.Out < 0 || m.Out >= x.cfg.OutPorts {
		panic(fmt.Sprintf("noc: message ports (%d,%d) outside %dx%d crossbar", m.In, m.Out, x.cfg.InPorts, x.cfg.OutPorts))
	}
	x.in[m.In].queue.Push(m)
	x.pending++
	x.nonEmpty |= 1 << uint(m.In)
}

// Pending returns the number of queued messages across all input ports.
func (x *Crossbar) Pending() int { return x.pending }

// CheckActivity verifies pending and the nonEmpty mask against the input
// queues they summarise. Invariant tests call it between simulated cycles;
// nothing else does.
func (x *Crossbar) CheckActivity() error {
	pending, nonEmpty := 0, uint64(0)
	for i := range x.in {
		if n := x.in[i].queue.Len(); n > 0 {
			pending += n
			nonEmpty |= 1 << uint(i)
		}
	}
	if pending != x.pending || (!x.wide && nonEmpty != x.nonEmpty) {
		return fmt.Errorf("noc: pending %d nonEmpty %b, queues say %d and %b", x.pending, x.nonEmpty, pending, nonEmpty)
	}
	return nil
}

// InQueueLen returns the instantaneous depth of one input port's ingress
// queue (the observability layer samples it on its metrics window).
func (x *Crossbar) InQueueLen(in int) int { return x.in[in].queue.Len() }

// Tick moves messages for one cycle, delivering to sink. now is the global
// cycle counter; cycle loops that fast-forward idle spans may call Tick with
// gaps in now. Idle crossbars return immediately; bucket credit catches up
// lazily when traffic resumes.
func (x *Crossbar) Tick(now int64, sink Sink) {
	if x.pending == 0 {
		return
	}
	blocked := false
	// Round-robin over input ports; each port drains while it has credit.
	// Buckets accrue lazily at first consultation this cycle: ports with no
	// queued traffic (and output ports no head targets) skip their refill
	// entirely, which deferred-composes to the same credit later.
	if !x.wide {
		// Walk only the non-empty ports: bits >= rr first, then the wrap.
		// The skipped bits are exactly the ports the linear scan below finds
		// empty, so the visit order — and the arbitration — is identical.
		hi := x.nonEmpty &^ (1<<uint(x.rr) - 1)
		lo := x.nonEmpty & (1<<uint(x.rr) - 1)
		for hi != 0 || lo != 0 {
			var in int
			if hi != 0 {
				in = bits.TrailingZeros64(hi)
				hi &= hi - 1
			} else {
				in = bits.TrailingZeros64(lo)
				lo &= lo - 1
			}
			if x.drainPort(now, in, sink) {
				blocked = true
			}
		}
	} else {
		for i := 0; i < x.cfg.InPorts; i++ {
			in := x.rr + i
			if in >= x.cfg.InPorts {
				in -= x.cfg.InPorts
			}
			if x.in[in].queue.Empty() {
				continue
			}
			if x.drainPort(now, in, sink) {
				blocked = true
			}
		}
	}
	if x.rr++; x.rr >= x.cfg.InPorts {
		x.rr = 0
	}
	if blocked {
		x.BlockedCycle++
	}
}

// drainPort moves one input port's messages for this cycle, reporting
// whether its head-of-line blocked. The caller guarantees the port is
// non-empty.
func (x *Crossbar) drainPort(now int64, in int, sink Sink) bool {
	ip := &x.in[in]
	q := &ip.queue
	ip.bkt.Advance(now - ip.adv)
	ip.adv = now
	for !q.Empty() && ip.bkt.CanTake() {
		head, _ := q.Peek()
		out := head.Out
		op := &x.out[out]
		op.bkt.Advance(now - op.adv)
		op.adv = now
		if !op.bkt.CanTake() || !sink.Offer(out, head.Req, head.Bytes) {
			return true // head-of-line blocks this input port this cycle
		}
		q.Pop()
		x.pending--
		ip.bkt.Take(head.Bytes)
		op.bkt.Take(head.Bytes)
		x.BytesMoved += int64(head.Bytes)
		x.MsgsMoved++
	}
	if q.Empty() {
		x.nonEmpty &^= 1 << uint(in)
	}
	return false
}
