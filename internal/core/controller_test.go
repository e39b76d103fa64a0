package core

import "testing"

func newTestController(opts Options) *Controller {
	prof := NewProfiler(4, 4, CRDConfig{Sets: 8, Ways: 16, Sectors: 1, LLCSetsPerChip: 64})
	return NewController(paperArch, prof, opts)
}

func TestControllerWindowLifecycle(t *testing.T) {
	c := newTestController(Options{WindowCycles: 100})
	c.StartKernel(1000)
	if !c.Profiling(1000) || !c.Profiling(1099) {
		t.Fatal("should be profiling inside window")
	}
	if c.Profiling(1100) {
		t.Fatal("still profiling after window")
	}
	if !c.WindowElapsed(1100) {
		t.Fatal("window should have elapsed")
	}
	c.Decide()
	if c.WindowElapsed(1200) {
		t.Fatal("WindowElapsed should be false after Decide")
	}
	// New kernel re-arms.
	c.StartKernel(5000)
	if !c.Profiling(5001) {
		t.Fatal("new kernel should profile again")
	}
}

func TestControllerDefaults(t *testing.T) {
	c := newTestController(Options{})
	o := c.Options()
	if o.WindowCycles != 2000 || o.Theta != 0.05 {
		t.Fatalf("defaults = %+v", o)
	}
}

func feedSharedHot(p *Profiler, n int) {
	// All four chips repeatedly access the same small hot set of lines homed
	// on chip 0 — the SP pattern: memory-side concentrates the traffic on
	// chip 0's slices (low LSU, remote-heavy) while SM-side replicas hit.
	for i := 0; i < n; i++ {
		line := uint64(i % 32)
		slice := int(line % 4)
		for chip := 0; chip < 4; chip++ {
			p.Record(line, 0, chip, 0, slice, true)
		}
	}
}

func TestControllerPicksSMSideForSharedHotSet(t *testing.T) {
	c := newTestController(Options{WindowCycles: 100})
	c.StartKernel(0)
	feedSharedHot(c.Profiler(), 200)
	d := c.Decide()
	if !d.PickSM {
		t.Fatalf("shared hot set should pick SM-side; advantage %.3f, inputs %+v",
			d.Advantage, c.Profiler().Inputs())
	}
	if got := c.LastDecision(); got.PickSM != d.PickSM {
		t.Fatal("LastDecision mismatch")
	}
}

func TestControllerStaysMemorySideForLocalStreams(t *testing.T) {
	c := newTestController(Options{WindowCycles: 100})
	c.StartKernel(0)
	p := c.Profiler()
	// Each chip streams over its own large private set: all local, no reuse
	// (memory-side hit rate 0.6, CRD sees one access per line → SM hit 0).
	id := uint64(0)
	for i := 0; i < 2000; i++ {
		for chip := 0; chip < 4; chip++ {
			id++
			p.Record(id<<8|uint64(chip), 0, chip, chip, int(id%4), i%10 < 6)
		}
	}
	d := c.Decide()
	if d.PickSM {
		t.Fatalf("local streaming workload picked SM-side (adv %.3f)", d.Advantage)
	}
}

func TestControllerMinSamples(t *testing.T) {
	c := newTestController(Options{WindowCycles: 100})
	c.StartKernel(0)
	// A four-line hot set every chip reads: replicas hit from the second
	// round on, so only the sample count stands between it and SM-side.
	for i := 0; i < (MinSamples-1)/4; i++ {
		for chip := 0; chip < 4; chip++ {
			c.Profiler().Record(uint64(i%4), 0, chip, 0, i%4, true)
		}
	}
	if n := c.Profiler().Samples(); n >= MinSamples {
		t.Fatalf("fed %d samples, want fewer than %d", n, MinSamples)
	}
	if !Decide(c.Arch(), c.Profiler().Inputs(), c.Options().Theta).PickSM {
		t.Fatal("the window's inputs alone do not pick SM-side; the guard is untested")
	}
	if d := c.Decide(); d.PickSM {
		t.Fatal("controller switched with too few samples")
	}
}

func TestProfilerInputs(t *testing.T) {
	p := NewProfiler(2, 2, CRDConfig{Sets: 4, Ways: 4, Sectors: 1, LLCSetsPerChip: 4})
	// Two accesses: one local hit, one remote miss, both to slice 0 of the
	// respective serving chip.
	p.Record(1, 0, 0, 0, 0, true)
	p.Record(2, 0, 0, 1, 0, false)
	w := p.Inputs()
	if w.RLocal != 0.5 {
		t.Fatalf("RLocal = %v", w.RLocal)
	}
	if w.MemSide.LLCHit != 0.5 {
		t.Fatalf("MemSide.LLCHit = %v", w.MemSide.LLCHit)
	}
	// Memory-side slice counters: chip0-slice0 and chip1-slice0 each got one
	// request; SM-side counters: both requests issued by chip 0 → slice 0 of
	// chip 0 got 2. LSU(mem) over 4 counters = (1+1+0+0)/4 / 1... compute:
	if w.MemSide.LSU <= w.SMSide.LSU {
		t.Fatalf("memory-side spread should have higher LSU here: %v vs %v",
			w.MemSide.LSU, w.SMSide.LSU)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Samples() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestDisableLSUAblation(t *testing.T) {
	// With wildly non-uniform memory-side traffic, disabling the LSU term
	// must change the decision inputs (sanity of the ablation hook).
	base := newTestController(Options{WindowCycles: 100})
	abl := newTestController(Options{WindowCycles: 100, DisableLSU: true})
	for _, c := range []*Controller{base, abl} {
		c.StartKernel(0)
		feedSharedHot(c.Profiler(), 200)
	}
	db, da := base.Decide(), abl.Decide()
	if db.MemSide.Total == da.MemSide.Total {
		t.Fatal("ablation had no effect on memory-side EAB")
	}
}

func TestNewProfilerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad profiler shape did not panic")
		}
	}()
	NewProfiler(0, 4, CRDConfig{Sets: 1, Ways: 1})
}

func TestReprofileDueAndRearm(t *testing.T) {
	c := newTestController(Options{WindowCycles: 100, ReprofileEvery: 1000})
	c.StartKernel(0)
	if c.ReprofileDue(5000) {
		t.Fatal("due before any decision")
	}
	feedSharedHot(c.Profiler(), 200)
	c.Decide()
	if c.ReprofileDue(999) {
		t.Fatal("due before the period elapsed")
	}
	if !c.ReprofileDue(1000) {
		t.Fatal("not due after the period")
	}
	c.Rearm(1000)
	if !c.Profiling(1050) {
		t.Fatal("not profiling after Rearm")
	}
	if c.ReprofileDue(1500) {
		t.Fatal("due again while the new window is open")
	}
	// Disabled by default.
	d := newTestController(Options{WindowCycles: 100})
	d.StartKernel(0)
	feedSharedHot(d.Profiler(), 200)
	d.Decide()
	if d.ReprofileDue(1 << 40) {
		t.Fatal("re-profiling fired with ReprofileEvery = 0")
	}
}
