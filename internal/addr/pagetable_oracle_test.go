package addr

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapPageTable is the map-only page table every run up to PR 14 placed pages
// with, kept as the differential oracle for the dense index in addr.go.
type mapPageTable struct {
	lpp   int
	chips int
	pages map[uint64]*pageEntry
}

func (t *mapPageTable) touch(line uint64, chip int) int {
	page := line / uint64(t.lpp)
	e, ok := t.pages[page]
	if !ok {
		e = &pageEntry{home: chip, lineChips: make([]uint8, t.lpp)}
		t.pages[page] = e
	}
	e.lineChips[line%uint64(t.lpp)] |= 1 << uint(chip)
	e.chipsTouch |= 1 << uint(chip)
	return e.home
}

func (t *mapPageTable) home(line uint64) int {
	if e, ok := t.pages[line/uint64(t.lpp)]; ok {
		return e.home
	}
	return -1
}

func (t *mapPageTable) classify(line uint64) SharingClass {
	e, ok := t.pages[line/uint64(t.lpp)]
	if !ok {
		return NonShared
	}
	mask := e.lineChips[line%uint64(t.lpp)]
	switch {
	case popcount8(mask) > 1:
		return TrueShared
	case mask != 0 && e.chipsTouch&^mask != 0:
		return FalseShared
	}
	return NonShared
}

func (t *mapPageTable) footprint(lineBytes int64) (total, trueShared, falseShared int64) {
	for _, e := range t.pages {
		for _, mask := range e.lineChips {
			switch {
			case mask == 0:
				continue
			case popcount8(mask) > 1:
				trueShared += lineBytes
			case e.chipsTouch&^mask != 0:
				falseShared += lineBytes
			}
			total += lineBytes
		}
	}
	return total, trueShared, falseShared
}

// TestPageTableMatchesMapOracle runs 20,000 seeded Touch/Home/Classify steps
// over page numbers on both sides of the dense bound — low pages, pages that
// force the index to grow, the last dense page, and trace-style pages far
// above it — and requires the dense-indexed table to answer exactly as the
// map-only one, sums included.
func TestPageTableMatchesMapOracle(t *testing.T) {
	const chips = 4
	pt := NewPageTable(testGeom, chips)
	lpp := uint64(testGeom.LinesPerPage())
	o := &mapPageTable{lpp: int(lpp), chips: chips, pages: map[uint64]*pageEntry{}}
	rng := rand.New(rand.NewSource(15))

	bases := []uint64{0, 700, 5000, 1 << 16, denseMaxPages - 2, denseMaxPages, denseMaxPages + 3, 1 << 40}
	pick := func() uint64 {
		page := bases[rng.Intn(len(bases))] + uint64(rng.Intn(3))
		return page*lpp + uint64(rng.Intn(int(lpp)))
	}
	for step := 0; step < 20000; step++ {
		line, chip := pick(), rng.Intn(chips)
		switch rng.Intn(4) {
		case 0:
			if got, want := pt.Home(line), o.home(line); got != want {
				t.Fatalf("step %d: Home(%d) = %d, oracle %d", step, line, got, want)
			}
		case 1:
			if got, want := pt.Classify(line), o.classify(line); got != want {
				t.Fatalf("step %d: Classify(%d) = %v, oracle %v", step, line, got, want)
			}
		default:
			if got, want := pt.Touch(line, chip), o.touch(line, chip); got != want {
				t.Fatalf("step %d: Touch(%d, chip %d) = %d, oracle %d", step, line, chip, got, want)
			}
		}
		if pt.Pages() != len(o.pages) {
			t.Fatalf("step %d: %d pages, oracle %d", step, pt.Pages(), len(o.pages))
		}
	}

	if len(pt.sparse) == 0 || len(pt.dense) != denseMaxPages {
		t.Fatalf("stream stayed on one side of the bound: %d dense slots, %d sparse pages", len(pt.dense), len(pt.sparse))
	}
	gt, gs, gf := pt.FootprintBytes()
	wt, ws, wf := o.footprint(int64(testGeom.LineBytes))
	if gt != wt || gs != ws || gf != wf {
		t.Fatalf("FootprintBytes = %d/%d/%d, oracle %d/%d/%d", gt, gs, gf, wt, ws, wf)
	}
	want := make([]int, chips)
	for _, e := range o.pages {
		want[e.home]++
	}
	if got := pt.HomeHistogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("HomeHistogram = %v, oracle %v", got, want)
	}

	pt.Reset()
	if pt.Pages() != 0 || pt.Home(bases[2]*lpp) != -1 || pt.Home(bases[7]*lpp) != -1 {
		t.Fatal("Reset left pages behind")
	}
}
