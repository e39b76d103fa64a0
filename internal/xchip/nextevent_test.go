package xchip

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// TestNextEventNeverLate: the ring's NextEvent(now) is a lower bound on its
// first observable state change (a launch, hop, delivery, or refused
// delivery), and -1 exactly when nothing is queued or on the wire. Probes
// freeze injection and brute-force step Tick.
func TestNextEventNeverLate(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 64, HopLatency: 7})
	rng := rand.New(rand.NewSource(31))
	const horizon = 100 // a few hop latencies
	s := newSink()
	// Launches move MsgsMoved, hops the egress depths (or MsgsMoved, when the
	// hop launches in the same Tick), deliveries and refusals the sink's
	// offer count.
	snap := func() [4]int64 {
		queued := 0
		for c := 0; c < 4; c++ {
			queued += r.LinkQueueLen(c, CW) + r.LinkQueueLen(c, CCW)
		}
		return [4]int64{int64(r.Pending()), r.MsgsMoved(), int64(queued), s.offers}
	}

	now := int64(0)
	for probe := 0; probe < 200; probe++ {
		s.refuse = rng.Intn(5) == 0
		for c := 1 + rng.Intn(15); c > 0; c-- {
			now++
			for i := rng.Intn(3); i > 0; i-- {
				src := rng.Intn(4)
				dst := rng.Intn(4)
				if dst == src {
					dst = (src + 1) % 4
				}
				line := rng.Uint64() % 256
				if r.CanInject(src, dst, line) {
					r.Inject(Message{Req: &memsys.Request{Line: line}, Src: src, Dst: dst, Bytes: 32})
				}
			}
			r.Tick(now, s)
		}

		ne := r.NextEvent(now)
		if r.Pending() == 0 && ne != -1 {
			t.Fatalf("probe %d: idle ring returned NextEvent %d, want -1", probe, ne)
		}
		if ne != -1 && ne <= now {
			t.Fatalf("probe %d: NextEvent %d not in the future of %d", probe, ne, now)
		}
		before := snap()
		change := int64(-1)
		for tt := now + 1; tt <= now+horizon; tt++ {
			r.Tick(tt, s)
			if snap() != before {
				change = tt
				break
			}
		}
		switch {
		case change >= 0:
			if ne == -1 || ne > change {
				t.Fatalf("probe %d: NextEvent(%d) = %d but state changed at %d", probe, now, ne, change)
			}
			now = change
		default:
			if ne != -1 && ne <= now+horizon {
				t.Fatalf("probe %d: NextEvent(%d) = %d promised progress but nothing changed in %d cycles",
					probe, now, ne, horizon)
			}
			now += horizon
		}
	}
}
