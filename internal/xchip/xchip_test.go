package xchip

import (
	"testing"

	"repro/internal/memsys"
)

type sink struct {
	arrived map[int][]Message
	offers  int64 // Offer calls, taken or refused
	refuse  bool
}

func newSink() *sink { return &sink{arrived: map[int][]Message{}} }

func (s *sink) Offer(chip int, m Message) bool {
	s.offers++
	if s.refuse {
		return false
	}
	s.arrived[chip] = append(s.arrived[chip], m)
	return true
}

func ringMsg(src, dst int, line uint64) Message {
	return Message{Req: &memsys.Request{Line: line}, Src: src, Dst: dst, Bytes: 32}
}

func run(r *Ring, s Sink, cycles int) { runFrom(r, s, 0, cycles) }

func runFrom(r *Ring, s Sink, start, cycles int) {
	for now := int64(start); now < int64(start+cycles); now++ {
		r.Tick(now, s)
	}
}

func TestNeighbourDelivery(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 5})
	s := newSink()
	r.Inject(ringMsg(0, 1, 7))
	run(r, s, 10)
	if len(s.arrived[1]) != 1 {
		t.Fatalf("chip 1 got %d messages, want 1", len(s.arrived[1]))
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after delivery", r.Pending())
	}
}

func TestTwoHopDelivery(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 5})
	s := newSink()
	r.Inject(ringMsg(0, 2, 7))
	run(r, s, 6)
	if len(s.arrived[2]) != 0 {
		t.Fatal("2-hop message arrived after one hop latency")
	}
	runFrom(r, s, 6, 10)
	if len(s.arrived[2]) != 1 {
		t.Fatalf("chip 2 got %d messages, want 1", len(s.arrived[2]))
	}
	if r.MsgsMoved() != 2 {
		t.Fatalf("MsgsMoved = %d, want 2 (two link traversals)", r.MsgsMoved())
	}
}

func TestHops(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 1})
	cases := []struct{ s, d, want int }{
		{0, 1, 1}, {1, 0, 1}, {0, 2, 2}, {0, 3, 1}, {3, 0, 1}, {1, 3, 2}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := r.Hops(c.s, c.d); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.s, c.d, got, c.want)
		}
	}
}

func TestOppositeChipUsesBothDirections(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 1e9, HopLatency: 1})
	dirs := map[Direction]int{}
	for line := uint64(0); line < 200; line++ {
		dirs[r.route(0, 2, line)]++
	}
	if dirs[CW] < 60 || dirs[CCW] < 60 {
		t.Fatalf("tie-break imbalance: %v", dirs)
	}
}

func TestBandwidthLimit(t *testing.T) {
	// 32 B/cycle link, 32 B messages: ~100 messages in 100 cycles, not 200.
	r := New(Config{Chips: 4, LinkBW: 32, HopLatency: 1})
	s := newSink()
	for i := 0; i < 200; i++ {
		r.Inject(ringMsg(0, 1, uint64(i)))
	}
	run(r, s, 100)
	got := len(s.arrived[1])
	if got < 95 || got > 110 {
		t.Fatalf("delivered %d in 100 cycles at 1 msg/cycle, want ~100", got)
	}
}

func TestDeterministicRouting(t *testing.T) {
	a := New(Config{Chips: 4, LinkBW: 1})
	b := New(Config{Chips: 4, LinkBW: 1})
	for line := uint64(0); line < 100; line++ {
		if a.route(1, 3, line) != b.route(1, 3, line) {
			t.Fatal("routing not deterministic")
		}
	}
}

func TestSinkBackPressureRetries(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 1})
	s := newSink()
	s.refuse = true
	r.Inject(ringMsg(0, 1, 7))
	run(r, s, 10)
	if len(s.arrived[1]) != 0 {
		t.Fatal("delivered despite refusal")
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, message lost", r.Pending())
	}
	s.refuse = false
	for now := int64(10); now < 20; now++ {
		r.Tick(now, s)
	}
	if len(s.arrived[1]) != 1 {
		t.Fatal("message not delivered after back-pressure cleared")
	}
}

func TestSetLinkBW(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 1})
	r.SetLinkBW(12)
	if r.Cfg().LinkBW != 12 {
		t.Fatalf("LinkBW = %v", r.Cfg().LinkBW)
	}
	s := newSink()
	for i := 0; i < 100; i++ {
		r.Inject(ringMsg(0, 1, uint64(i)))
	}
	run(r, s, 100)
	// 12 B/cycle with 32 B msgs ≈ 0.375 msg/cycle ≈ 37 in 100 cycles.
	got := len(s.arrived[1])
	if got < 30 || got > 45 {
		t.Fatalf("delivered %d, want ~37 at reduced bandwidth", got)
	}
}

func TestInjectPanicsOnSelf(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("self-injection did not panic")
		}
	}()
	r.Inject(ringMsg(2, 2, 0))
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 1 chip did not panic")
		}
	}()
	New(Config{Chips: 1, LinkBW: 1})
}

func TestTwoChipRing(t *testing.T) {
	// GPU-count sensitivity uses a 2-chip ring; every remote hop is distance 1.
	r := New(Config{Chips: 2, LinkBW: 96, HopLatency: 2})
	s := newSink()
	r.Inject(ringMsg(0, 1, 3))
	r.Inject(ringMsg(1, 0, 4))
	run(r, s, 10)
	if len(s.arrived[0]) != 1 || len(s.arrived[1]) != 1 {
		t.Fatalf("arrivals %d,%d", len(s.arrived[0]), len(s.arrived[1]))
	}
}

// Property: every injected message is eventually delivered exactly once,
// regardless of the src/dst mix.
func TestRingDeliveryProperty(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 64, HopLatency: 3})
	s := newSink()
	want := map[int]int{}
	n := 0
	for i := uint64(0); i < 200; i++ {
		src := int(i % 4)
		dst := int((i / 4) % 4)
		if src == dst {
			continue
		}
		r.Inject(ringMsg(src, dst, i))
		want[dst]++
		n++
	}
	for now := int64(0); now < 5000 && r.Pending() > 0; now++ {
		r.Tick(now, s)
	}
	if r.Pending() != 0 {
		t.Fatalf("%d messages stuck on the ring", r.Pending())
	}
	total := 0
	for dst, c := range want {
		if len(s.arrived[dst]) != c {
			t.Fatalf("chip %d received %d, want %d", dst, len(s.arrived[dst]), c)
		}
		total += c
	}
	if int(r.Arrivals) != total || total != n {
		t.Fatalf("arrivals %d, want %d", r.Arrivals, n)
	}
}
