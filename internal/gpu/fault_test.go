package gpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/llc"
)

// mixedPlan exercises every fault domain without wedging the machine: the
// throttles heal or leave residual bandwidth, and dead LLC slices fall
// through to memory rather than blocking.
func mixedPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(
		"xchip:0.cw@2000-30000*0.5; xchip:1.ccw@5000*0.25;" +
			"dram:0.1@1000-40000*0.5; llc:1.0@3000*0;" +
			"llc:0.1@1000-20000*0.5; noc:0.0@2000-2500*0")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestZeroFaultPlanMatchesBaseline(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SAC)
	spec := tinyWorkload()
	base := mustRun(t, cfg, spec)
	for _, plan := range []*fault.Plan{nil, {}} {
		r, err := RunWith(cfg, spec, RunOpts{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("zero-fault run diverged from baseline:\nbase %+v\ngot  %+v", base, r)
		}
	}
}

func TestFaultRunDeterministic(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SAC)
	spec := tinyWorkload()
	plan := mixedPlan(t)
	first, err := runFaultsChecked(t, cfg, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if first.FaultEvents == 0 {
		t.Fatal("plan applied no fault events")
	}
	for i := 0; i < 2; i++ {
		again, err := RunWith(cfg, spec, RunOpts{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("faulted run not deterministic:\nfirst %+v\nagain %+v", first, again)
		}
	}
}

func TestFaultedRunsAllOrgs(t *testing.T) {
	spec := tinyWorkload()
	plan := mixedPlan(t)
	base := mustRun(t, tinyConfig(), spec)
	for _, org := range llc.Orgs() {
		r, err := runFaultsChecked(t, tinyConfig().WithOrg(org), spec, plan)
		if err != nil {
			t.Fatalf("%s: %v", org, err)
		}
		// Degraded hardware must not change the retired work, only its cost.
		if r.MemOps != base.MemOps {
			t.Fatalf("%s: retired %d ops under faults, want %d", org, r.MemOps, base.MemOps)
		}
	}
}

func TestDeadSliceRunCompletes(t *testing.T) {
	plan, err := fault.Parse("llc:0.0@0*0; llc:0.1@0*0") // chip 0 loses its whole LLC
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	base := mustRun(t, cfg, tinyWorkload())
	r, err := runFaultsChecked(t, cfg, tinyWorkload(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemOps != base.MemOps {
		t.Fatalf("retired %d ops, want %d", r.MemOps, base.MemOps)
	}
	if r.LLCHits >= base.LLCHits {
		t.Fatalf("LLC hits %d did not drop from %d with chip 0's LLC dead", r.LLCHits, base.LLCHits)
	}
}

func TestWatchdogCatchesWedgedRing(t *testing.T) {
	// Kill every ring link permanently: remote requests queue at their egress
	// ports forever, local traffic drains, and then nothing retires.
	var events []string
	for chip := 0; chip < 4; chip++ {
		events = append(events, "xchip:"+string(rune('0'+chip))+".cw@0*0",
			"xchip:"+string(rune('0'+chip))+".ccw@0*0")
	}
	plan, err := fault.Parse(strings.Join(events, ";"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.WatchdogCycles = 20_000
	_, err = RunWith(cfg, tinyWorkload(), RunOpts{Faults: plan})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("wedged run returned %v, want a StallError", err)
	}
	if stall.Cycle-stall.LastProgress <= cfg.WatchdogCycles {
		t.Fatalf("watchdog fired early: now %d, last progress %d, window %d",
			stall.Cycle, stall.LastProgress, stall.Window)
	}
	if !strings.Contains(stall.Dump, "ring.pending=") || !strings.Contains(stall.Dump, "chip 0:") {
		t.Fatalf("dump missing occupancies:\n%s", stall.Dump)
	}
	if !strings.Contains(stall.Error(), "stalled: no progress") {
		t.Fatalf("unhelpful error text: %v", stall)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCycles = 20_000 // tight window, healthy machine
	mustRun(t, cfg, tinyWorkload())
}

func TestInjectFaultsRejectsOutOfShapePlan(t *testing.T) {
	sys, err := New(tinyConfig(), tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"xchip:7.cw@0*0",  // chip outside 4-chip machine
		"dram:0.5@0*0",    // channel outside 2 channels
		"llc:0.3@0*0",     // slice outside 2 slices
		"noc:0.2@100*0.5", // cluster outside 2 clusters
	} {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.InjectFaults(plan); err == nil {
			t.Fatalf("plan %q accepted against tinyConfig shape", spec)
		}
	}
}

func TestDegradedArchStaysValid(t *testing.T) {
	// A machine-wide outage must still produce validatable ArchParams for
	// the EAB model (clamped, not zero).
	var events []string
	for chip := 0; chip < 4; chip++ {
		events = append(events, "xchip:"+string(rune('0'+chip))+".cw@0*0",
			"xchip:"+string(rune('0'+chip))+".ccw@0*0")
	}
	plan, err := fault.Parse(strings.Join(events, ";"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(tinyConfig().WithOrg(llc.SAC), tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	sys.now = 1
	sys.applyFaults()
	arch := sys.sac.Arch()
	if err := arch.Validate(); err != nil {
		t.Fatalf("degraded arch invalid: %v", err)
	}
	if arch.BInter >= tinyConfig().ArchParams().BInter {
		t.Fatalf("BInter %v not degraded", arch.BInter)
	}
}
