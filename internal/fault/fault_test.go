package fault

import (
	"reflect"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("xchip:0.cw@1000-5000*0.5; dram:1.0@2000*0; xchip:2.ccw@500-900*0.25; dram:0.1@100-200*0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(p.Events))
	}
	want := []Event{ // canonical order: domain, chip, unit
		{Domain: XChip, Chip: 0, Unit: 0, Start: 1000, End: 5000, Scale: 0.5},
		{Domain: XChip, Chip: 2, Unit: 1, Start: 500, End: 900, Scale: 0.25},
		{Domain: DRAM, Chip: 0, Unit: 1, Start: 100, End: 200, Scale: 0},
		{Domain: DRAM, Chip: 1, Unit: 0, Start: 2000, Scale: 0},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("parsed %+v\nwant %+v", p.Events, want)
	}
	// The canonical string re-parses to the same plan.
	p2, err := Parse(p.Key())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.Key(), err)
	}
	if !reflect.DeepEqual(p.Events, p2.Events) {
		t.Fatalf("round trip changed events: %+v vs %+v", p.Events, p2.Events)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"xchip:0.cw",           // no window
		"warp:0@10*0.5",        // unknown domain
		"xchip:0.up@10*0.5",    // bad unit
		"xchip:0.cw@10*1.5",    // scale out of range
		"xchip:0.cw@50-10*0.5", // empty window
		"dram:-1.0@10*0.5",     // negative chip
		"dram:a.b@10",          // unparsable indices
		"llc:0.0@10*0.5",       // no LLC-slice domain
		"noc:0.0@10*0.5",       // no NoC-port domain
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	shape := Shape{Chips: 4, ChannelsPerChip: 2}
	a := Generate(7, shape, 12, 100_000)
	b := Generate(7, shape, 12, 100_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if err := a.Validate(shape); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	var seen [numDomains]int
	for _, e := range a.Events {
		seen[e.Domain]++
	}
	if seen[XChip] == 0 || seen[DRAM] == 0 {
		t.Fatalf("12 generated events cover domains %v, want both", seen)
	}
	c := Generate(8, shape, 12, 100_000)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Fatal("plan keys do not track plan identity")
	}
}

func TestValidateShapeBounds(t *testing.T) {
	shape := Shape{Chips: 2, ChannelsPerChip: 2}
	p := &Plan{Events: []Event{{Domain: DRAM, Chip: 1, Unit: 5, Start: 0, Scale: 0.5}}}
	if err := p.Validate(shape); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
	p = &Plan{Events: []Event{{Domain: XChip, Chip: 3, Unit: 0, Start: 0, Scale: 0.5}}}
	if err := p.Validate(shape); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
	p = &Plan{Events: []Event{{Domain: numDomains, Chip: 0, Unit: 0, Start: 0, Scale: 0.5}}}
	if err := p.Validate(Shape{}); err == nil {
		t.Fatal("domain past DRAM accepted")
	}
}

func TestInjectorEdgesAndComposition(t *testing.T) {
	p := &Plan{Events: []Event{
		{Domain: XChip, Chip: 0, Unit: 0, Start: 10, End: 30, Scale: 0.5},
		{Domain: XChip, Chip: 0, Unit: 0, Start: 20, End: 40, Scale: 0.5},
		{Domain: DRAM, Chip: 1, Unit: 0, Start: 20, Scale: 0}, // permanent
	}}
	in := NewInjector(p)

	if got := in.NextEdge(0); got != 10 {
		t.Fatalf("NextEdge(0) = %d, want 10", got)
	}
	if ch := in.Advance(5); ch != nil {
		t.Fatalf("premature changes %+v", ch)
	}
	ch := in.Advance(10)
	if len(ch) != 1 || ch[0].Scale != 0.5 {
		t.Fatalf("at 10: %+v", ch)
	}
	ch = in.Advance(20)
	if len(ch) != 2 {
		t.Fatalf("at 20: %+v", ch)
	}
	// Sorted: xchip before dram? Domain order: XChip=0 < DRAM=1.
	if ch[0].Domain != XChip || ch[0].Scale != 0.25 {
		t.Fatalf("composed scale at 20: %+v", ch[0])
	}
	if ch[1].Domain != DRAM || ch[1].Scale != 0 {
		t.Fatalf("dram outage at 20: %+v", ch[1])
	}
	ch = in.Advance(30)
	if len(ch) != 1 || ch[0].Scale != 0.5 {
		t.Fatalf("first event healed at 30: %+v", ch)
	}
	ch = in.Advance(40)
	if len(ch) != 1 || ch[0].Scale != 1 {
		t.Fatalf("link fully healed at 40: %+v", ch)
	}
	if in.NextEdge(40) != -1 {
		t.Fatal("edges remain after 40")
	}
	// The permanent DRAM outage is the only active fault left.
	if in.ActiveFaults() != 1 {
		t.Fatalf("active faults = %d, want 1", in.ActiveFaults())
	}
}

func TestInjectorEmptyPlan(t *testing.T) {
	for _, in := range []*Injector{NewInjector(nil), NewInjector(&Plan{})} {
		if in.NextEdge(0) != -1 || in.Advance(1<<40) != nil || in.ActiveFaults() != 0 {
			t.Fatal("empty injector fired")
		}
	}
	if (&Plan{}).Key() != "" || (*Plan)(nil).Key() != "" {
		t.Fatal("empty plan key not empty")
	}
}

// TestCompositionDeterministic pins the composed scale of three overlapping
// events on one unit: float products depend on their order, so every
// injector must multiply in one order (the plan's) to give every run of one
// key one answer.
func TestCompositionDeterministic(t *testing.T) {
	p, err := Parse("xchip:0.cw@100-900*0.1; xchip:0.cw@100-900*0.1; xchip:0.cw@100-900*0.3")
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	for _, e := range p.Events {
		want *= e.Scale
	}
	for i := 0; i < 200; i++ {
		ch := NewInjector(p).Advance(100)
		if len(ch) != 1 || ch[0].Scale != want {
			t.Fatalf("injector %d composed %+v, want scale %v", i, ch, want)
		}
	}
}
