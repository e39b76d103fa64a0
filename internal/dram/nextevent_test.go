package dram

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// TestNextEventNeverLate is the scheduling contract the cycle loop's idle
// fast-forward relies on: NextEvent(now) is a lower bound on the first
// future cycle at which the partition's observable state changes, and -1
// only when no change can happen without new input. The test interleaves
// random traffic with probes; at each probe it freezes injection and steps
// Tick cycle by cycle to find the first actual state change.
func TestNextEventNeverLate(t *testing.T) {
	p := New(Config{Channels: 2, ChannelBW: 48, Latency: 40, QueueBound: 8})
	rng := rand.New(rand.NewSource(7))
	const lineBytes = 128
	const horizon = 2000 // comfortably past latency + queueing
	var done int64
	sink := func(*memsys.Request) { done++ }
	snap := func() [5]int64 {
		return [5]int64{int64(p.Pending()), p.BytesMoved, p.Reads, p.Writes, done}
	}

	now := int64(0)
	for probe := 0; probe < 150; probe++ {
		// Random traffic burst.
		for c := 1 + rng.Intn(20); c > 0; c-- {
			now++
			for i := rng.Intn(3); i > 0; i-- {
				ch := rng.Intn(p.Cfg().Channels)
				if !p.CanAccept(ch) {
					continue
				}
				kind := memsys.Read
				if rng.Intn(4) == 0 {
					kind = memsys.Write
				}
				p.Enqueue(&memsys.Request{Line: rng.Uint64() % 512, Kind: kind, Channel: ch})
			}
			p.Tick(now, lineBytes, sink)
		}

		ne := p.NextEvent(now)
		if p.Pending() == 0 && ne != -1 {
			t.Fatalf("probe %d: idle partition returned NextEvent %d, want -1", probe, ne)
		}
		if ne != -1 && ne <= now {
			t.Fatalf("probe %d: NextEvent %d is not in the future of %d", probe, ne, now)
		}
		before := snap()
		change := int64(-1)
		for tt := now + 1; tt <= now+horizon; tt++ {
			p.Tick(tt, lineBytes, sink)
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
