package gpu

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// checkActivity asserts, between two steps, that every activity word says
// exactly what the components it summarises say: a stale word would make the
// cycle loop skip a component with work, or fastForward skip a cycle with a
// due event (or visit an idle one, which is only slow). Tests hang it on
// System.afterStep.
func (s *System) checkActivity(t *testing.T) {
	t.Helper()
	for _, c := range s.chips {
		for si := range c.slices {
			sl := &c.slices[si]
			if bit, queued := c.sliceBusy>>uint(si)&1 == 1, !sl.lookupQ.Empty(); bit != queued {
				t.Fatalf("cycle %d chip %d slice %d: sliceBusy bit %v, lookup queue holds %d", s.now, c.idx, si, bit, sl.lookupQ.Len())
			}
			if n, occ := sl.mshr.Len(), sl.mshr.Occupied(); n != occ {
				t.Fatalf("cycle %d chip %d slice %d: MSHR Len %d, occupied slots %d", s.now, c.idx, si, n, occ)
			}
			if err := sl.arr.CheckRows(); err != nil {
				t.Fatalf("cycle %d chip %d slice %d: %v", s.now, c.idx, si, err)
			}
		}
		if c.sliceBusy>>uint(len(c.slices)) != 0 {
			t.Fatalf("cycle %d chip %d: sliceBusy %b has bits past %d slices", s.now, c.idx, c.sliceBusy, len(c.slices))
		}
		var live [len(c.smLive)]uint64
		for i, smu := range c.sms {
			if c.smWake[i] != smu.SleepUntil() {
				t.Fatalf("cycle %d chip %d SM %d: smWake %d, SleepUntil %d", s.now, c.idx, i, c.smWake[i], smu.SleepUntil())
			}
			if c.smWake[i] < sm.Never {
				live[i>>6] |= 1 << uint(i&63)
			}
			if smu.KernelDone() && smu.SleepUntil() != sm.Never {
				t.Fatalf("cycle %d chip %d SM %d: retired but sleeps until %d, not Never", s.now, c.idx, i, smu.SleepUntil())
			}
			if err := smu.CheckRunnable(); err != nil {
				t.Fatalf("cycle %d: %v", s.now, err)
			}
			if err := smu.L1().CheckRows(); err != nil {
				t.Fatalf("cycle %d chip %d SM %d L1: %v", s.now, c.idx, i, err)
			}
		}
		if live != c.smLive {
			t.Fatalf("cycle %d chip %d: live-SM set %b, smWake says %b", s.now, c.idx, c.smLive, live)
		}
		if err := c.mem.CheckActivity(); err != nil {
			t.Fatalf("cycle %d chip %d: %v", s.now, c.idx, err)
		}
		if err := c.reqNet.CheckActivity(); err != nil {
			t.Fatalf("cycle %d chip %d request net: %v", s.now, c.idx, err)
		}
		if err := c.respNet.CheckActivity(); err != nil {
			t.Fatalf("cycle %d chip %d response net: %v", s.now, c.idx, err)
		}
		// fastForward reads the hit pipeline's head as its earliest due.
		head, _ := c.hitDelay.NextDue()
		if scan, _ := c.hitDelay.MinDue(); head != scan {
			t.Fatalf("cycle %d chip %d: hit pipeline head due %d, earliest in flight %d", s.now, c.idx, head, scan)
		}
	}
	if err := s.ring.CheckActivity(); err != nil {
		t.Fatalf("cycle %d: %v", s.now, err)
	}
}

// checkConserved asserts request conservation at a point where nothing is in
// flight: every request the machine ever allocated — reads, write-through
// stores, writebacks, invalidations — has been retired exactly once and is
// back in the pool.
func (s *System) checkConserved(t *testing.T) {
	t.Helper()
	if free, made := int64(s.pool.Free()), s.pool.Allocs; free != made {
		t.Fatalf("cycle %d: %d requests allocated, %d back in the pool", s.now, made, free)
	}
}

// runFaultsChecked is RunWith under a fault plan with checkActivity after
// every step and checkConserved after the run.
func runFaultsChecked(t *testing.T, cfg Config, spec workload.Spec, plan *fault.Plan) (*stats.Run, error) {
	t.Helper()
	sys, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := sys.InjectFaults(plan); err != nil {
		return nil, err
	}
	sys.afterStep = func() { sys.checkActivity(t) }
	r, err := sys.Run()
	if err == nil {
		sys.checkConserved(t)
	}
	return r, err
}

// TestCycleLoopSteadyStateAllocs pins the property DESIGN.md §5.1 states:
// once the machine is warm, stepping it allocates nothing. SN's kernel is
// invoked twice; the first invocation places the pages and grows queues,
// arenas and the request pool, and the window sits inside the second.
//
// testing.AllocsPerRun over single steps must read 0. That figure is an
// integer average, so the test also counts the window's allocations exactly
// and bounds them: the only structures that may still allocate are the
// growth-only ones (a queue or arena doubling its buffer), a handful of
// events however long the window. Anything per request or
// per miss reads in the thousands here — the map-based MSHR file alone
// allocated once per primary miss.
func TestCycleLoopSteadyStateAllocs(t *testing.T) {
	spec, err := workload.ByName("SN")
	if err != nil {
		t.Fatal(err)
	}
	spec.Repeats = 2
	cfg := ScaledConfig().WithOrg(llc.SMSide)
	cfg.WorkloadScale *= 4
	cfg.LLCBytesPerChip /= 4
	cfg.L1BytesPerSM /= 4
	sys, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}

	const (
		lead     = 1000 // steps into the second invocation before measuring
		window   = 2000 // steps measured
		maxGrown = 8    // growth-only events tolerated in the window
	)
	measured := false
	steps := 0
	sys.afterStep = func() {
		if sys.kernelIdx != 1 || measured {
			return
		}
		if steps++; steps < lead {
			return
		}
		measured = true
		ops0 := sys.run.MemOps
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		perStep := testing.AllocsPerRun(window, func() {
			if sys.step() {
				t.Fatal("kernel retired inside the measured window")
			}
			sys.fastForward()
		})
		runtime.ReadMemStats(&m1)
		if perStep != 0 {
			t.Errorf("steady-state cycle loop allocates %v times per step, want 0", perStep)
		}
		if total := m1.Mallocs - m0.Mallocs; total > maxGrown {
			t.Errorf("%d allocations in %d steps, want at most %d (growth-only structures)", total, window, maxGrown)
		}
		if sys.run.MemOps == ops0 {
			t.Error("the measured window issued no memory operations")
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("run ended before the measured window")
	}
}
