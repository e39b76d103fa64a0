package noc

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// offered rebuilds the message behind an Offer, for the test sinks that record
// what they were handed. The input port is read back from Req.SrcSM, where
// msg put it (tests that inject bare messages do not look at it).
func offered(out int, req *memsys.Request, bytes int) Message {
	m := Message{Req: req, Out: out, Bytes: bytes}
	if req != nil {
		m.In = req.SrcSM
	}
	return m
}

// SinkFunc adapts a pair of functions to the Sink interface, for tests (the
// simulator's own sinks are concrete structs): an Offer is accepted, and
// handed to AcceptF, unless CanAcceptF refuses it.
type SinkFunc struct {
	CanAcceptF func(out int, m Message) bool
	AcceptF    func(out int, m Message)
}

// Offer implements Sink.
func (s SinkFunc) Offer(out int, req *memsys.Request, bytes int) bool {
	m := offered(out, req, bytes)
	if s.CanAcceptF != nil && !s.CanAcceptF(out, m) {
		return false
	}
	s.AcceptF(out, m)
	return true
}

type collector struct {
	got     [][]Message
	refuse  map[int]bool
	accepts int
}

func newCollector(outs int) *collector {
	return &collector{got: make([][]Message, outs), refuse: map[int]bool{}}
}

func (c *collector) Offer(out int, req *memsys.Request, bytes int) bool {
	if c.refuse[out] {
		return false
	}
	c.got[out] = append(c.got[out], offered(out, req, bytes))
	c.accepts++
	return true
}

func msg(in, out, bytes int) Message {
	return Message{Req: &memsys.Request{SrcSM: in}, In: in, Out: out, Bytes: bytes}
}

func TestCrossbarDelivers(t *testing.T) {
	x := New(Config{InPorts: 2, OutPorts: 2, InBW: 64, OutBW: 64})
	sink := newCollector(2)
	x.Inject(msg(0, 1, 32))
	x.Inject(msg(1, 0, 32))
	x.Tick(1, sink)
	if len(sink.got[0]) != 1 || len(sink.got[1]) != 1 {
		t.Fatalf("delivered %d,%d; want 1,1", len(sink.got[0]), len(sink.got[1]))
	}
	if x.MsgsMoved != 2 || x.BytesMoved != 64 {
		t.Fatalf("stats msgs=%d bytes=%d", x.MsgsMoved, x.BytesMoved)
	}
}

func TestCrossbarOutputBandwidthLimit(t *testing.T) {
	// Two inputs both target output 0 at 32 B/cycle with 32 B messages:
	// aggregate throughput must be ~1 msg/cycle, not 2.
	x := New(Config{InPorts: 2, OutPorts: 1, InBW: 64, OutBW: 32})
	sink := newCollector(1)
	for i := 0; i < 100; i++ {
		x.Inject(msg(0, 0, 32))
		x.Inject(msg(1, 0, 32))
		x.Tick(int64(i+1), sink)
	}
	if sink.accepts < 95 || sink.accepts > 110 {
		t.Fatalf("delivered %d msgs in 100 cycles at 1 msg/cycle output", sink.accepts)
	}
	if x.BlockedCycle == 0 {
		t.Fatal("contention should record blocked cycles")
	}
}

func TestCrossbarInputBandwidthLimit(t *testing.T) {
	// One input at 32 B/cycle fanning to two 64 B/cycle outputs: ~1 msg/cycle.
	x := New(Config{InPorts: 1, OutPorts: 2, InBW: 32, OutBW: 64})
	sink := newCollector(2)
	for i := 0; i < 100; i++ {
		x.Inject(msg(0, i%2, 32))
		x.Tick(int64(i+1), sink)
	}
	if sink.accepts < 95 || sink.accepts > 110 {
		t.Fatalf("delivered %d msgs in 100 cycles at 1 msg/cycle input", sink.accepts)
	}
}

func TestCrossbarFairness(t *testing.T) {
	// Two saturating inputs to one output must each get ~half the bandwidth.
	x := New(Config{InPorts: 2, OutPorts: 1, InBW: 64, OutBW: 32, IngressBound: 4})
	sink := newCollector(1)
	per := map[int]int{}
	for i := 0; i < 400; i++ {
		for in := 0; in < 2; in++ {
			if x.CanInject(in) {
				x.Inject(msg(in, 0, 32))
			}
		}
		x.Tick(int64(i+1), sink)
	}
	for _, m := range sink.got[0] {
		per[m.In]++
	}
	if per[0] < 150 || per[1] < 150 {
		t.Fatalf("unfair arbitration: %v", per)
	}
}

func TestCrossbarSinkBackPressure(t *testing.T) {
	x := New(Config{InPorts: 1, OutPorts: 1, InBW: 64, OutBW: 64})
	sink := newCollector(1)
	sink.refuse[0] = true
	x.Inject(msg(0, 0, 32))
	x.Tick(1, sink)
	if sink.accepts != 0 {
		t.Fatal("delivered despite refusing sink")
	}
	if x.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", x.Pending())
	}
	sink.refuse[0] = false
	x.Tick(2, sink)
	if sink.accepts != 1 || x.Pending() != 0 {
		t.Fatal("message lost after back-pressure released")
	}
}

func TestCrossbarIngressBound(t *testing.T) {
	x := New(Config{InPorts: 1, OutPorts: 1, InBW: 1, OutBW: 1, IngressBound: 2})
	x.Inject(msg(0, 0, 32))
	x.Inject(msg(0, 0, 32))
	if x.CanInject(0) {
		t.Fatal("queue at bound should refuse injection")
	}
}

func TestCrossbarLargeMessageSerialization(t *testing.T) {
	// 160 B responses through a 32 B/cycle output: ~1 per 5 cycles.
	x := New(Config{InPorts: 1, OutPorts: 1, InBW: 1e9, OutBW: 32})
	sink := newCollector(1)
	for i := 0; i < 50; i++ {
		x.Inject(msg(0, 0, 160))
	}
	for i := 0; i < 100; i++ {
		x.Tick(int64(i+1), sink)
	}
	if sink.accepts < 18 || sink.accepts > 22 {
		t.Fatalf("moved %d large messages in 100 cycles, want ~20", sink.accepts)
	}
}

func TestInjectPanicsOnBadPorts(t *testing.T) {
	x := New(Config{InPorts: 2, OutPorts: 2, InBW: 1, OutBW: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Inject with bad port did not panic")
		}
	}()
	x.Inject(msg(5, 0, 32))
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero ports did not panic")
		}
	}()
	New(Config{InPorts: 0, OutPorts: 1, InBW: 1, OutBW: 1})
}

func TestSinkFuncDefaults(t *testing.T) {
	var got []Message
	s := SinkFunc{AcceptF: func(_ int, m Message) { got = append(got, m) }}
	if !s.Offer(3, &memsys.Request{}, 1) {
		t.Fatal("nil CanAcceptF should accept")
	}
	if len(got) != 1 {
		t.Fatal("AcceptF not invoked")
	}
	s.CanAcceptF = func(int, Message) bool { return false }
	if s.Offer(3, &memsys.Request{}, 1) || len(got) != 1 {
		t.Fatal("a refused offer was delivered")
	}
}

// Property: the crossbar conserves messages — everything injected is
// delivered exactly once, in per-input FIFO order.
func TestCrossbarConservationProperty(t *testing.T) {
	x := New(Config{InPorts: 3, OutPorts: 3, InBW: 64, OutBW: 48})
	sink := newCollector(3)
	injected := 0
	for i := 0; i < 300; i++ {
		m := msg(i%3, (i/3)%3, 32)
		m.Req.Line = uint64(i)
		x.Inject(m)
		injected++
	}
	for i := 0; i < 2000 && x.Pending() > 0; i++ {
		x.Tick(int64(i+1), sink)
	}
	if x.Pending() != 0 {
		t.Fatalf("%d messages stuck", x.Pending())
	}
	delivered := 0
	for _, msgs := range sink.got {
		delivered += len(msgs)
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d", delivered, injected)
	}
	// Per-input FIFO order holds in global delivery order.
	ordered := New(Config{InPorts: 2, OutPorts: 2, InBW: 64, OutBW: 64})
	var seq []Message
	recorder := SinkFunc{AcceptF: func(_ int, m Message) { seq = append(seq, m) }}
	for i := 0; i < 40; i++ {
		m := msg(i%2, (i/2)%2, 32)
		m.Req.Line = uint64(i)
		ordered.Inject(m)
	}
	for i := 0; i < 200 && ordered.Pending() > 0; i++ {
		ordered.Tick(int64(i+1), recorder)
	}
	last := map[int]uint64{}
	for _, m := range seq {
		if prev, ok := last[m.In]; ok && m.Req.Line <= prev {
			t.Fatalf("per-input order violated on port %d: %d after %d", m.In, m.Req.Line, prev)
		}
		last[m.In] = m.Req.Line
	}
}

// wideSink refuses deliveries to one output port on some cycles, so heads of
// line block, and records what it accepted in order.
type wideSink struct {
	now      int64
	accepted []Message
}

func (s *wideSink) Offer(out int, req *memsys.Request, bytes int) bool {
	if out == 3 && s.now%5 == 0 {
		return false
	}
	s.accepted = append(s.accepted, offered(out, req, bytes))
	return true
}

// TestCrossbarWidePortsMatchMask covers the fork a 160-SM chip selects and no
// test built: with more than 64 input ports Tick scans every port instead of
// walking the non-empty mask. The same seeded traffic through both walks of
// a 40x12 crossbar must deliver in the same order with the same counters;
// then a 65-port crossbar (only the scan can serve it) must move traffic
// injected at its last port.
func TestCrossbarWidePortsMatchMask(t *testing.T) {
	cfg := Config{InPorts: 40, OutPorts: 12, InBW: 48, OutBW: 64, IngressBound: 4}
	mask, scan := New(cfg), New(cfg)
	scan.wide = true // force the linear scan on a crossbar the mask also serves
	ms, ss := &wideSink{}, &wideSink{}
	rng := rand.New(rand.NewSource(64))
	var id uint64
	for now := int64(1); now <= 4000; now++ {
		if now%97 == 0 {
			now += 40 // a fast-forwarded idle span: Tick sees a gap in now
		}
		for k := rng.Intn(6); k > 0; k-- {
			in := rng.Intn(cfg.InPorts)
			if mask.CanInject(in) != scan.CanInject(in) {
				t.Fatalf("cycle %d: CanInject(%d) differs between the walks", now, in)
			}
			if !mask.CanInject(in) {
				continue
			}
			id++
			m := Message{Req: &memsys.Request{Line: id}, In: in, Out: rng.Intn(cfg.OutPorts), Bytes: 8 + 32*rng.Intn(5)}
			mask.Inject(m)
			scan.Inject(m)
		}
		ms.now, ss.now = now, now
		mask.Tick(now, ms)
		scan.Tick(now, ss)
	}
	if len(ms.accepted) == 0 || mask.BlockedCycle == 0 {
		t.Fatalf("traffic too light: %d delivered, %d blocked cycles", len(ms.accepted), mask.BlockedCycle)
	}
	if len(ms.accepted) != len(ss.accepted) {
		t.Fatalf("mask walk delivered %d messages, linear scan %d", len(ms.accepted), len(ss.accepted))
	}
	for i := range ms.accepted {
		if ms.accepted[i] != ss.accepted[i] {
			t.Fatalf("delivery %d: mask walk %+v, linear scan %+v", i, ms.accepted[i], ss.accepted[i])
		}
	}
	if mask.BytesMoved != scan.BytesMoved || mask.MsgsMoved != scan.MsgsMoved ||
		mask.BlockedCycle != scan.BlockedCycle || mask.Pending() != scan.Pending() {
		t.Fatalf("counters differ: mask %d/%d/%d/%d, scan %d/%d/%d/%d",
			mask.BytesMoved, mask.MsgsMoved, mask.BlockedCycle, mask.Pending(),
			scan.BytesMoved, scan.MsgsMoved, scan.BlockedCycle, scan.Pending())
	}

	wide := New(Config{InPorts: 65, OutPorts: 2, InBW: 64, OutBW: 64})
	if !wide.wide {
		t.Fatal("a 65-port crossbar did not select the linear scan")
	}
	sink := &wideSink{}
	for _, in := range []int{64, 0, 63} {
		wide.Inject(Message{Req: &memsys.Request{Line: uint64(in)}, In: in, Out: in % 2, Bytes: 16})
	}
	for now := int64(1); now <= 4 && wide.Pending() > 0; now++ {
		sink.now = now
		wide.Tick(now, sink)
	}
	if wide.Pending() != 0 || len(sink.accepted) != 3 {
		t.Fatalf("65-port crossbar delivered %d of 3 messages, %d still queued", len(sink.accepted), wide.Pending())
	}
}
