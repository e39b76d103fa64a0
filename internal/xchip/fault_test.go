package xchip

import "testing"

func TestLinkOutageAndHeal(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 2})
	s := newSink()
	r.SetLinkScale(0, CW, 0)
	if got := r.LinkScale(0, CW); got != 0 {
		t.Fatalf("LinkScale = %v, want 0", got)
	}
	r.Inject(ringMsg(0, 1, 7))
	run(r, s, 50)
	if len(s.arrived[1]) != 0 {
		t.Fatal("message crossed a dead link")
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (queued at the dead link)", r.Pending())
	}
	// Heal and the queued message drains.
	r.SetLinkScale(0, CW, 1)
	runFrom(r, s, 50, 10)
	if len(s.arrived[1]) != 1 {
		t.Fatalf("chip 1 got %d messages after heal, want 1", len(s.arrived[1]))
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after heal", r.Pending())
	}
}

func TestLinkOutageLeavesOtherDirectionAlive(t *testing.T) {
	r := New(Config{Chips: 4, LinkBW: 96, HopLatency: 2})
	s := newSink()
	r.SetLinkScale(0, CW, 0)
	r.Inject(ringMsg(0, 3, 7)) // 0→3 routes CCW, unaffected
	run(r, s, 10)
	if len(s.arrived[3]) != 1 {
		t.Fatal("CCW traffic blocked by a CW outage")
	}
}

func TestLinkThrottleHalvesThroughput(t *testing.T) {
	// 32 B messages over a 32 B/cycle link: healthy ≈ 1 msg/cycle; at scale
	// 0.5 ≈ 0.5 msg/cycle. 4 chips so 0→1 routes strictly CW (on a 2-ring
	// the directions are equidistant and traffic would split).
	count := func(scale float64) int {
		r := New(Config{Chips: 4, LinkBW: 32, HopLatency: 1})
		r.SetLinkScale(0, CW, scale)
		s := newSink()
		for i := 0; i < 200; i++ {
			r.Inject(ringMsg(0, 1, uint64(i)))
		}
		run(r, s, 101)
		return len(s.arrived[1])
	}
	full, half := count(1), count(0.5)
	if full < 95 || half < 45 || half > 55 {
		t.Fatalf("throughput full=%d half=%d; want ~100 and ~50", full, half)
	}
}

func TestSetLinkBWPreservesScale(t *testing.T) {
	r := New(Config{Chips: 2, LinkBW: 32, HopLatency: 1})
	r.SetLinkScale(0, CW, 0)
	r.SetLinkBW(64) // sensitivity sweep reconfigure mid-outage
	if r.links[0][CW].bkt.Rate() != 0 {
		t.Fatalf("dead link revived by SetLinkBW: rate = %v", r.links[0][CW].bkt.Rate())
	}
	if r.links[1][CW].bkt.Rate() != 64 {
		t.Fatalf("healthy link rate = %v, want 64", r.links[1][CW].bkt.Rate())
	}
}
