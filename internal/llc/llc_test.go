package llc

import (
	"testing"

	"repro/internal/cache"
)

func TestOrgStringsRoundTrip(t *testing.T) {
	if len(Orgs()) != 5 {
		t.Fatalf("Orgs() = %v", Orgs())
	}
	for _, o := range Orgs() {
		got, err := ParseOrg(o.String())
		if err != nil || got != o {
			t.Errorf("round trip %v -> %q -> %v, %v", o, o.String(), got, err)
		}
	}
	if _, err := ParseOrg("bogus"); err == nil {
		t.Fatal("bogus org accepted")
	}
	if Org(99).String() == "" {
		t.Fatal("unknown org should stringify")
	}
}

func TestInitialModes(t *testing.T) {
	cases := map[Org]Mode{
		MemorySide: ModeMemorySide,
		SMSide:     ModeSMSide,
		Static:     ModeHybrid,
		Dynamic:    ModeHybrid,
		SAC:        ModeMemorySide, // SAC profiles under memory-side
	}
	for o, want := range cases {
		if got := o.InitialMode(); got != want {
			t.Errorf("%v.InitialMode() = %v, want %v", o, got, want)
		}
	}
	if !Static.Partitioned() || !Dynamic.Partitioned() || MemorySide.Partitioned() ||
		SMSide.Partitioned() || SAC.Partitioned() {
		t.Fatal("Partitioned wrong")
	}
}

func TestRouteMemorySide(t *testing.T) {
	// Local request: looked up locally.
	r := RouteFor(ModeMemorySide, 1, 1)
	if r.LookupChip != 1 || r.Part != cache.PartAll || r.SecondLookup || r.BypassAtHome {
		t.Fatalf("local mem-side route %+v", r)
	}
	// Remote request: looked up at the home chip.
	r = RouteFor(ModeMemorySide, 1, 3)
	if r.LookupChip != 3 || r.SecondLookup || r.BypassAtHome {
		t.Fatalf("remote mem-side route %+v", r)
	}
}

func TestRouteSMSide(t *testing.T) {
	r := RouteFor(ModeSMSide, 1, 1)
	if r.LookupChip != 1 || r.BypassAtHome {
		t.Fatalf("local SM-side route %+v", r)
	}
	// Remote: look up locally; a miss bypasses the home LLC (paper Fig 6).
	r = RouteFor(ModeSMSide, 1, 3)
	if r.LookupChip != 1 || !r.BypassAtHome || r.SecondLookup {
		t.Fatalf("remote SM-side route %+v", r)
	}
}

func TestRouteHybrid(t *testing.T) {
	r := RouteFor(ModeHybrid, 2, 2)
	if r.LookupChip != 2 || r.Part != cache.PartLocal || r.SecondLookup {
		t.Fatalf("local hybrid route %+v", r)
	}
	r = RouteFor(ModeHybrid, 2, 0)
	if r.LookupChip != 2 || r.Part != cache.PartRemote || !r.SecondLookup ||
		r.HomePart != cache.PartLocal || r.BypassAtHome {
		t.Fatalf("remote hybrid route %+v", r)
	}
}

func TestRoutePanicsOnUnknownMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode did not panic")
		}
	}()
	RouteFor(Mode(9), 0, 1)
}

func TestDynamicControllerShiftsTowardRing(t *testing.T) {
	// Saturated ring, idle DRAM: remote partition must grow (localWays down).
	d := newDyn(16, 100, 100, 100)
	for now := int64(0); now < 1000; now++ {
		d.Observe(100, 0)
		d.Tick(now)
	}
	if d.LocalWays() >= 8 {
		t.Fatalf("localWays = %d, want < 8 under ring pressure", d.LocalWays())
	}
	if d.LocalWays() < 1 {
		t.Fatal("localWays below floor")
	}
}

func TestDynamicControllerShiftsTowardDRAM(t *testing.T) {
	d := newDyn(16, 100, 100, 100)
	for now := int64(0); now < 1000; now++ {
		d.Observe(0, 100)
		d.Tick(now)
	}
	if d.LocalWays() <= 8 {
		t.Fatalf("localWays = %d, want > 8 under DRAM pressure", d.LocalWays())
	}
	if d.LocalWays() > 15 {
		t.Fatal("localWays above ceiling")
	}
}

func TestDynamicControllerStableWhenBalanced(t *testing.T) {
	d := newDyn(16, 100, 100, 100)
	for now := int64(0); now < 1000; now++ {
		d.Observe(50, 50)
		d.Tick(now)
	}
	if d.LocalWays() != 8 || d.Adjustments != 0 {
		t.Fatalf("localWays = %d adj = %d, want 8 and 0", d.LocalWays(), d.Adjustments)
	}
}

func TestDynamicControllerEpochGating(t *testing.T) {
	d := newDyn(16, 100, 100, 100)
	d.Observe(1000, 0)
	if d.Tick(50) { // before epoch boundary
		t.Fatal("adjusted before epoch elapsed")
	}
	if !d.Tick(100) {
		t.Fatal("did not adjust at epoch boundary")
	}
}

func TestDynamicControllerResetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-way controller did not panic")
		}
	}()
	newDyn(1, 100, 1, 1)
}

func newDyn(ways int, epoch int64, ringCap, dramCap float64) *DynamicController {
	d := new(DynamicController)
	d.Reset(ways, epoch, ringCap, dramCap)
	return d
}
