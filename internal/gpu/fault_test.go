package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/llc"
)

// mixedPlan exercises both fault domains without wedging the machine: the
// throttles heal or leave residual bandwidth, and the one outage (a DRAM
// channel at scale 0) heals, so a run crosses a scale-0 edge and its heal.
func mixedPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(
		"xchip:0.cw@2000-30000*0.5; xchip:1.ccw@5000*0.25;" +
			"dram:0.1@1000-40000*0.5; dram:1.0@3000-9000*0")
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
		"xchip:7.cw@0*0", // chip outside 4-chip machine
		"dram:0.5@0*0",   // channel outside 2 channels
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

// TestFaultKeepsStandingDecision: SAC decides once per kernel, from its
// window's counters and the healthy ArchParams (paper §3.2). A fault edge
// after the decision changes what the hardware costs, not what SAC decided:
// the kernel keeps its organization and the run its reconfiguration count.
func TestFaultKeepsStandingDecision(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SAC)
	spec := tinyWorkload()
	base := mustRun(t, cfg, spec)
	if len(base.Kernels) != 1 || base.Kernels[0].Org != llc.ModeSMSide.String() {
		t.Fatalf("unfaulted SAC run %+v: want one kernel decided SM-side, or the test pins nothing", base.Kernels)
	}
	edge := base.Cycles / 2
	if edge <= cfg.SACOpts.WindowCycles {
		t.Fatalf("edge %d falls inside the %d-cycle window", edge, cfg.SACOpts.WindowCycles)
	}
	plan, err := fault.Parse(fmt.Sprintf("dram:0.0@%d*0.5; dram:1.1@%d*0.5", edge, edge))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runFaultsChecked(t, cfg, spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultEvents == 0 {
		t.Fatal("plan applied no fault events")
	}
	if r.Kernels[0].Org != base.Kernels[0].Org || r.Reconfigs != base.Reconfigs {
		t.Fatalf("a fault at cycle %d moved the decision: org %s, %d reconfigs; unfaulted %s, %d",
			edge, r.Kernels[0].Org, r.Reconfigs, base.Kernels[0].Org, base.Reconfigs)
	}
}
