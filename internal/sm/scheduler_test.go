package sm

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/workload"
)

// linearPick is the scheduler scan the runnable word replaced, kept as the
// oracle: GTO over every warp's own flags. It returns the pick and the greedy
// pointer the pick leaves behind.
func linearPick(s *SM, now int64) (wi, greedy int) {
	if len(s.warps) == 0 {
		return -1, s.greedy
	}
	if g := &s.warps[s.greedy]; !g.done && !g.blocked && g.readyAt <= now {
		return s.greedy, s.greedy
	}
	for i := range s.warps {
		if w := &s.warps[i]; !w.done && !w.blocked && w.readyAt <= now {
			return i, i
		}
	}
	return -1, s.greedy
}

// linearWake is the wakeup scan that followed a failed linearPick.
func linearWake(s *SM) int64 {
	wake := int64(1) << 62
	for i := range s.warps {
		if w := &s.warps[i]; !w.done && !w.blocked && w.readyAt < wake {
			wake = w.readyAt
		}
	}
	return wake
}

// TestSchedulerMatchesLinearScan drives SMs of 1, 8 and MaxWarps warps
// through random issue / refuse / receive sequences on short streams — so
// warps block, unblock and retire, some of them retiring while still blocked
// on their last load — and checks before every Issue that the mask-driven
// pick, the greedy pointer it leaves and the wakeup it reports equal the
// linear scans', and after every step that the runnable word equals the
// warps' flags.
func TestSchedulerMatchesLinearScan(t *testing.T) {
	for _, warps := range []int{1, 8, MaxWarps} {
		rng := rand.New(rand.NewSource(int64(40 + warps)))
		s := New(Config{Chip: 0, Index: 0, L1Lines: 16, L1Ways: 2, Geom: testGeom, Sectors: 1})
		var inflight []*memsys.Request
		var failedPolls, retiredBlocked int
		for kernel := 0; kernel < 3; kernel++ {
			streams := make([]workload.AccessStream, warps)
			for i := range streams {
				streams[i] = randomStream(rng, rng.Intn(40)) // some streams are empty
			}
			s.LoadStreams(streams)
			if err := s.CheckRunnable(); err != nil {
				t.Fatal(err)
			}
			for now := int64(1); !s.KernelDone(); now++ {
				if now > 1<<20 {
					t.Fatalf("%d warps: kernel %d never retired", warps, kernel)
				}
				greedyBefore := s.greedy
				wantWi, wantGreedy := linearPick(s, now)
				wantWake := linearWake(s)
				gotWi, gotWake := s.pickWarp(now)
				if gotWi != wantWi || s.greedy != wantGreedy {
					t.Fatalf("%d warps cycle %d: pick %d (greedy %d), linear scan picks %d (greedy %d)",
						warps, now, gotWi, s.greedy, wantWi, wantGreedy)
				}
				if gotWi < 0 {
					failedPolls++
					if gotWake != wantWake {
						t.Fatalf("%d warps cycle %d: wakeup %d, linear scan says %d", warps, now, gotWake, wantWake)
					}
				}
				s.greedy = greedyBefore

				res := s.Issue(now, rng.Intn(4) != 0)
				if res.Req != nil && res.Req.Kind == memsys.Read {
					inflight = append(inflight, res.Req)
				}
				if len(inflight) > 0 && rng.Intn(6) == 0 {
					k := rng.Intn(len(inflight))
					req := inflight[k]
					inflight = append(inflight[:k], inflight[k+1:]...)
					req.HomeChip = req.SrcChip
					s.Receive(now, req)
				}
				for i := range s.warps {
					if s.warps[i].done && s.warps[i].blocked {
						retiredBlocked++
					}
				}
				if err := s.CheckRunnable(); err != nil {
					t.Fatalf("cycle %d: %v", now, err)
				}
			}
		}
		if failedPolls == 0 || retiredBlocked == 0 {
			t.Fatalf("%d warps: %d failed polls, %d sightings of a warp retired while blocked", warps, failedPolls, retiredBlocked)
		}
	}
}

// TestLoadStreamsPanicsPastMaxWarps pins the bound the runnable word sets.
func TestLoadStreamsPanicsPastMaxWarps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("more warps than the runnable word holds were accepted")
		}
	}()
	s := New(Config{L1Lines: 16, L1Ways: 2, Geom: testGeom})
	s.LoadStreams(make([]workload.AccessStream, MaxWarps+1))
}

// TestRefusedLoadCountedOnce: a load miss the NoC port refuses retries every
// cycle; the L1 counts it when it finally issues, once, not once per retry.
func TestRefusedLoadCountedOnce(t *testing.T) {
	s := New(Config{L1Lines: 16, L1Ways: 2, Geom: testGeom})
	s.LoadStreams([]workload.AccessStream{
		&sliceStream{acc: []workload.Access{{Line: 5, Kind: memsys.Read}}},
	})
	for now := int64(1); now <= 50; now++ {
		if res := s.Issue(now, false); res.Issued {
			t.Fatalf("cycle %d: load issued through a full port", now)
		}
	}
	if h, m := s.L1Stats(); h != 0 || m != 0 {
		t.Fatalf("50 refused retries counted %d hits, %d misses; want none", h, m)
	}
	if res := s.Issue(51, true); res.Req == nil {
		t.Fatal("load did not issue once the port opened")
	}
	if h, m := s.L1Stats(); h != 0 || m != 1 {
		t.Fatalf("after the load issued: %d hits, %d misses; want 0 and 1", h, m)
	}
}
