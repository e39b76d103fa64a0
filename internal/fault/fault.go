// Package fault defines deterministic fault-injection plans for the
// multi-chip GPU simulator and the injector that replays them.
//
// A Plan is a schedule of fault events, written in a compact DSL (Parse)
// or drawn from a seed (Generate), against two of the hardware health
// signals real multi-chip parts degrade on: inter-chip ring links losing
// lanes or dropping out entirely, and DRAM channels throttling or failing.
// Every event names an exact [Start, End) cycle window and a residual
// capacity Scale, so a faulted run is a pure function of (config, workload,
// plan): replaying the same plan — serially or inside a parallel sweep —
// produces bit-identical statistics.
//
// The gpu package consumes plans through an Injector, which turns the event
// list into a sorted edge schedule (activations and deactivations) and
// reports, per affected unit, the composed residual scale (the product of
// all active events on that unit). A fault changes what the hardware costs,
// not what SAC decided: SAC decides once per kernel from its window's
// counters and the healthy architecture (paper §3.2). With every DRAM
// channel or every ring link at a quarter from cycle 20,000, SAC matches or
// beats the better pure organization on 15 of the 16 workloads; BFS, whose
// K1 kernels stay memory-side, runs 0.82× as fast as SM-side (EXPERIMENTS.md,
// "SAC under degraded hardware").
package fault

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Domain names the hardware class an event degrades.
type Domain uint8

const (
	// XChip degrades one directional inter-chip ring link (unit 0 = the
	// clockwise link leaving the chip, 1 = counter-clockwise).
	XChip Domain = iota
	// DRAM degrades one DRAM channel of a chip's memory partition.
	DRAM

	numDomains
)

var domainNames = [numDomains]string{"xchip", "dram"}

// String returns the canonical lower-case domain name.
func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return fmt.Sprintf("domain(%d)", int(d))
}

// ParseDomain resolves a domain name ("link"/"ring" name XChip, "mem" DRAM).
func ParseDomain(s string) (Domain, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "xchip", "link", "ring":
		return XChip, nil
	case "dram", "mem":
		return DRAM, nil
	}
	return 0, fmt.Errorf("fault: unknown domain %q (want xchip|dram)", s)
}

// Event is one fault: unit (Domain, Chip, Unit) runs at Scale of its healthy
// capacity during cycles [Start, End). End 0 means permanent. Overlapping
// events on the same unit compose multiplicatively.
type Event struct {
	Domain Domain
	Chip   int
	Unit   int
	Start  int64
	End    int64   // 0 = never heals
	Scale  float64 // residual fraction in [0,1]
}

// permanent reports whether the event never deactivates.
func (e Event) permanent() bool { return e.End <= 0 }

func (e Event) String() string {
	unit := strconv.Itoa(e.Unit)
	if e.Domain == XChip {
		if e.Unit == 0 {
			unit = "cw"
		} else {
			unit = "ccw"
		}
	}
	s := fmt.Sprintf("%s:%d.%s@%d", e.Domain, e.Chip, unit, e.Start)
	if !e.permanent() {
		s += "-" + strconv.FormatInt(e.End, 10)
	}
	return s + "*" + strconv.FormatFloat(e.Scale, 'g', -1, 64)
}

// Validate checks one event's internal consistency.
func (e Event) Validate() error {
	switch {
	case int(e.Domain) >= int(numDomains):
		return fmt.Errorf("fault: bad domain in %+v", e)
	case e.Chip < 0:
		return fmt.Errorf("fault: negative chip in %+v", e)
	case e.Unit < 0:
		return fmt.Errorf("fault: negative unit in %+v", e)
	case e.Domain == XChip && e.Unit > 1:
		return fmt.Errorf("fault: xchip unit must be 0 (cw) or 1 (ccw), got %d", e.Unit)
	case e.Start < 0 || e.End < 0:
		return fmt.Errorf("fault: negative cycle in %+v", e)
	case !e.permanent() && e.End <= e.Start:
		return fmt.Errorf("fault: empty window [%d,%d)", e.Start, e.End)
	case !(e.Scale >= 0 && e.Scale <= 1): // NaN too
		return fmt.Errorf("fault: scale %v outside [0,1]", e.Scale)
	}
	return nil
}

// Shape bounds a plan against a machine: unit indices must exist. The zero
// value of a field skips that bound (for shape-agnostic plans).
type Shape struct {
	Chips           int
	ChannelsPerChip int
}

// compareEvents is the canonical event order: by unit (domain, chip, unit),
// then window, then scale.
func compareEvents(a, b Event) int {
	return cmp.Or(
		cmp.Compare(a.Domain, b.Domain),
		cmp.Compare(a.Chip, b.Chip),
		cmp.Compare(a.Unit, b.Unit),
		cmp.Compare(a.Start, b.Start),
		cmp.Compare(a.End, b.End),
		cmp.Compare(a.Scale, b.Scale),
	)
}

// Plan is a complete fault schedule; String renders it in the DSL Parse
// reads. Parse and Generate return Events in canonical order (compareEvents),
// so a plan's Key and its replay depend on its set of events, not on the
// order they were written in.
type Plan struct {
	Events []Event
}

// Validate checks every event, bounded by shape where its fields are set.
func (p *Plan) Validate(shape Shape) error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if shape.Chips > 0 && e.Chip >= shape.Chips {
			return fmt.Errorf("event %d: chip %d outside %d chips", i, e.Chip, shape.Chips)
		}
		// Event.Validate bounds an xchip unit to cw and ccw.
		if n := shape.ChannelsPerChip; e.Domain == DRAM && n > 0 && e.Unit >= n {
			return fmt.Errorf("event %d: dram unit %d outside %d channels", i, e.Unit, n)
		}
	}
	return nil
}

// Empty reports whether the plan schedules no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Key returns a canonical fingerprint of the plan, suitable as part of a
// memoization key: two plans with the same events in the same order produce
// the same key, and Parse and Generate order events canonically.
func (p *Plan) Key() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// String renders the plan in the compact spec syntax Parse accepts.
func (p *Plan) String() string { return p.Key() }

// Parse reads the compact inline syntax: semicolon-separated events of the
// form
//
//	domain:chip[.unit]@start[-end][*scale]
//
// e.g. "xchip:0.cw@1000-5000*0.5; dram:1.0@2000*0; dram:2.1@500*0.5".
// A missing unit defaults to 0, a missing end means permanent, a missing
// scale means 0 (outage).
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		e, err := parseEvent(item)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("fault: plan %q holds no events", s)
	}
	if err := p.Validate(Shape{}); err != nil {
		return nil, err
	}
	slices.SortFunc(p.Events, compareEvents)
	return p, nil
}

func parseEvent(item string) (Event, error) {
	var e Event
	bad := func(why string) (Event, error) {
		return e, fmt.Errorf("fault: bad event %q: %s (want domain:chip[.unit]@start[-end][*scale])", item, why)
	}
	rest := item
	if i := strings.LastIndex(rest, "*"); i >= 0 {
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil {
			return bad("unparsable scale")
		}
		if v == 0 {
			v = 0 // -0 and 0 are one scale: one spelling, one key
		}
		e.Scale = v
		rest = rest[:i]
	}
	parts := strings.SplitN(rest, "@", 2)
	if len(parts) != 2 {
		return bad("missing @window")
	}
	window := parts[1]
	if lo, hi, ranged := strings.Cut(window, "-"); ranged {
		start, err1 := strconv.ParseInt(lo, 10, 64)
		end, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil {
			return bad("unparsable cycle window")
		}
		e.Start, e.End = start, end
	} else {
		start, err := strconv.ParseInt(window, 10, 64)
		if err != nil {
			return bad("unparsable start cycle")
		}
		e.Start = start
	}
	loc := parts[0]
	domStr, chipUnit, ok := strings.Cut(loc, ":")
	if !ok {
		return bad("missing domain:")
	}
	d, err := ParseDomain(domStr)
	if err != nil {
		return e, err
	}
	e.Domain = d
	chipStr, unitStr, hasUnit := strings.Cut(chipUnit, ".")
	chip, err := strconv.Atoi(chipStr)
	if err != nil {
		return bad("unparsable chip index")
	}
	e.Chip = chip
	if hasUnit {
		switch {
		case d == XChip && strings.EqualFold(unitStr, "cw"):
			e.Unit = 0
		case d == XChip && strings.EqualFold(unitStr, "ccw"):
			e.Unit = 1
		default:
			u, err := strconv.Atoi(unitStr)
			if err != nil {
				return bad("unparsable unit index")
			}
			e.Unit = u
		}
	}
	if err := e.Validate(); err != nil {
		return e, err
	}
	return e, nil
}

// Generate derives a deterministic random plan from a seed: n events spread
// over [0, horizon) cycles across both domains and the shape's units, with
// degradation scales drawn from {0, 0.25, 0.5, 0.75} and window lengths
// between horizon/64 and horizon/4 (one in eight events is permanent).
// The same (seed, shape, n, horizon) always yields the same plan.
func Generate(seed int64, shape Shape, n int, horizon int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if horizon < 16 {
		horizon = 16
	}
	chips := shape.Chips
	if chips < 2 {
		chips = 2
	}
	p := &Plan{}
	for i := 0; i < n; i++ {
		var e Event
		e.Domain = Domain(rng.Intn(int(numDomains)))
		e.Chip = rng.Intn(chips)
		if e.Domain == XChip {
			e.Unit = rng.Intn(2)
		} else {
			e.Unit = rng.Intn(max(shape.ChannelsPerChip, 1))
		}
		e.Start = rng.Int63n(horizon)
		if rng.Intn(8) != 0 { // 7 in 8 events heal
			span := horizon/64 + rng.Int63n(max(horizon/4, 1))
			e.End = e.Start + max(span, 1)
		}
		e.Scale = float64(rng.Intn(4)) * 0.25
		p.Events = append(p.Events, e)
	}
	slices.SortFunc(p.Events, compareEvents)
	return p
}

// unitKey identifies one faultable hardware unit.
type unitKey struct {
	d          Domain
	chip, unit int
}

// edge is one activation or deactivation in the replay schedule.
type edge struct {
	at int64
	ev int // index into plan.Events
	on bool
}

// Change reports one unit whose composed residual scale changed.
type Change struct {
	Domain Domain
	Chip   int
	Unit   int
	Scale  float64 // composed residual capacity in [0,1]; 1 = healed
}

// Injector replays a plan: the owning cycle loop calls Advance once per
// stepped cycle (and bounds idle-cycle fast-forwarding by NextEdge) and
// applies the returned Changes to the device models.
type Injector struct {
	plan   *Plan
	edges  []edge
	next   int
	active map[unitKey][]int   // unit -> its active events' indices, ascending
	scales map[unitKey]float64 // current composed scale per touched unit
}

// NewInjector compiles a plan into its edge schedule. A nil or empty plan
// yields an injector that never fires.
func NewInjector(p *Plan) *Injector {
	in := &Injector{
		plan:   p,
		active: make(map[unitKey][]int),
		scales: make(map[unitKey]float64),
	}
	if p != nil {
		for i, e := range p.Events {
			in.edges = append(in.edges, edge{at: e.Start, ev: i, on: true})
			if !e.permanent() {
				in.edges = append(in.edges, edge{at: e.End, ev: i, on: false})
			}
		}
	}
	// Deactivations before activations at the same cycle, then plan order:
	// a window ending exactly when another begins hands over cleanly.
	sort.SliceStable(in.edges, func(a, b int) bool {
		ea, eb := in.edges[a], in.edges[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return !ea.on && eb.on
	})
	return in
}

// NextEdge returns the cycle of the earliest unapplied edge after now, or -1
// when the schedule is exhausted. Fast-forwarding loops use it so a skip
// never jumps over a fault boundary.
func (in *Injector) NextEdge(now int64) int64 {
	for _, e := range in.edges[in.next:] {
		if e.at > now {
			return e.at
		}
	}
	return -1
}

// Advance applies every edge due at or before now and returns the composed
// per-unit scale changes in a deterministic order (sorted by domain, chip,
// unit). A unit's scale is the product of its active events' scales taken
// in plan order: float products depend on their order. It returns nil when
// no edge fired.
func (in *Injector) Advance(now int64) []Change {
	if in.next >= len(in.edges) || in.edges[in.next].at > now {
		return nil
	}
	touched := make(map[unitKey]struct{})
	for in.next < len(in.edges) && in.edges[in.next].at <= now {
		ed := in.edges[in.next]
		in.next++
		e := in.plan.Events[ed.ev]
		k := unitKey{e.Domain, e.Chip, e.Unit}
		touched[k] = struct{}{}
		i, _ := slices.BinarySearch(in.active[k], ed.ev)
		if ed.on {
			in.active[k] = slices.Insert(in.active[k], i, ed.ev)
		} else {
			in.active[k] = slices.Delete(in.active[k], i, i+1)
		}
	}
	changes := make([]Change, 0, len(touched))
	for k := range touched {
		scale := 1.0
		for _, ev := range in.active[k] {
			scale *= in.plan.Events[ev].Scale
		}
		if len(in.active[k]) == 0 {
			delete(in.scales, k)
		} else {
			in.scales[k] = scale
		}
		changes = append(changes, Change{Domain: k.d, Chip: k.chip, Unit: k.unit, Scale: scale})
	}
	sort.Slice(changes, func(a, b int) bool {
		x, y := changes[a], changes[b]
		if x.Domain != y.Domain {
			return x.Domain < y.Domain
		}
		if x.Chip != y.Chip {
			return x.Chip < y.Chip
		}
		return x.Unit < y.Unit
	})
	return changes
}

// ActiveFaults returns the number of units currently degraded.
func (in *Injector) ActiveFaults() int { return len(in.scales) }
