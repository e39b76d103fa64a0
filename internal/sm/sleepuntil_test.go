package sm

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/workload"
)

// sliceStream adapts a fixed access slice to workload.AccessStream.
type sliceStream struct {
	acc []workload.Access
	i   int
}

func (s *sliceStream) Next() (workload.Access, bool) {
	if s.i >= len(s.acc) {
		return workload.Access{}, false
	}
	a := s.acc[s.i]
	s.i++
	return a, true
}
func (s *sliceStream) Len() int64 { return int64(len(s.acc)) }

func randomStream(rng *rand.Rand, n int) workload.AccessStream {
	acc := make([]workload.Access, n)
	for i := range acc {
		kind := memsys.Read
		if rng.Intn(5) == 0 {
			kind = memsys.Write
		}
		acc[i] = workload.Access{Line: rng.Uint64() % 64, Kind: kind, Gap: rng.Intn(30)}
	}
	return &sliceStream{acc: acc}
}

// TestSleepUntilNeverLate: the SM's SleepUntil is a lower bound on the first
// future cycle at which Issue can act (a warp issues or retires), and Never
// only when nothing can happen without a Receive. Probes freeze response
// delivery and brute-force step Issue to find the first action.
func TestSleepUntilNeverLate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := New(Config{
		Chip: 0, Index: 0, L1Lines: 16, L1Ways: 2,
		Geom: memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4},
	})
	streams := make([]workload.AccessStream, 4)
	for i := range streams {
		streams[i] = randomStream(rng, 80)
	}
	s.LoadStreams(streams)

	const horizon = 200 // past the longest compute gap
	var outstanding []*memsys.Request
	now := int64(0)
	for probe := 0; probe < 400 && !s.KernelDone(); probe++ {
		// Run a burst with responses delivered at random delays.
		for c := 1 + rng.Intn(12); c > 0; c-- {
			now++
			if res := s.Issue(now, rng.Intn(8) != 0); res.Req != nil {
				if res.Req.Kind == memsys.Read {
					outstanding = append(outstanding, res.Req)
				}
			}
			for len(outstanding) > 0 && rng.Intn(3) == 0 {
				req := outstanding[0]
				outstanding = outstanding[1:]
				s.Receive(now, req)
			}
		}

		wake := s.SleepUntil()
		if s.KernelDone() {
			break
		}
		change := int64(-1)
		for tt := now + 1; tt <= now+horizon; tt++ {
			if res := s.Issue(tt, true); res.Issued {
				if res.Req != nil && res.Req.Kind == memsys.Read {
					outstanding = append(outstanding, res.Req)
				}
				change = tt
				break
			}
		}
		switch {
		case change >= 0:
			if wake > change {
				t.Fatalf("probe %d: SleepUntil at %d was %d but a warp issued at %d", probe, now, wake, change)
			}
			now = change
		default:
			// No issue without deliveries: every live warp is blocked on a
			// load. The probed hint may have been a conservative cycle in the
			// past (it updates lazily, on a failed Issue attempt), but after
			// the attempts above the SM must report Never — Receive is the
			// only thing that can wake it.
			now += horizon
			if wake := s.SleepUntil(); wake != Never {
				t.Fatalf("probe %d: blocked SM sleeps until %d after failed issue attempts, want Never",
					probe, wake)
			}
			if len(outstanding) == 0 {
				t.Fatalf("probe %d: SM wedged with no outstanding loads to deliver", probe)
			}
		}
	}
	if !s.KernelDone() {
		t.Fatal("kernel did not retire within the probe budget")
	}
	if wake := s.SleepUntil(); wake != Never {
		t.Fatalf("retired SM sleeps until %d, want Never", wake)
	}
}
