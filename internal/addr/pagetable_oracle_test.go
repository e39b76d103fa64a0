package addr

import (
	"math/bits"
	"math/rand"
	"testing"
)

// mapPageTable is the map-only page table every run up to PR 14 placed pages
// and recorded sharers with, kept as the differential oracle for both slot
// types of the dense/sparse page index in addr.go.
type mapPageTable struct {
	pages map[uint64]*mapPage
	lpp   int
}

type mapPage struct {
	censusPage
	home int
}

func newMapPageTable() *mapPageTable {
	return &mapPageTable{lpp: testGeom.LinesPerPage(), pages: map[uint64]*mapPage{}}
}

func (t *mapPageTable) touch(line uint64, chip int) int {
	page := line / uint64(t.lpp)
	e, ok := t.pages[page]
	if !ok {
		e = &mapPage{censusPage{lineChips: make([]uint8, t.lpp)}, chip}
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
	case bits.OnesCount8(mask) > 1:
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
			case bits.OnesCount8(mask) > 1:
				trueShared += lineBytes
			case e.chipsTouch&^mask != 0:
				falseShared += lineBytes
			}
			total += lineBytes
		}
	}
	return total, trueShared, falseShared
}

// straddlingLines returns a seeded picker of lines whose page numbers sit on
// both sides of the dense bound — low pages, pages that force the index to
// grow, the last dense page, and trace-style pages far above it.
func straddlingLines(rng *rand.Rand) func() uint64 {
	lpp := uint64(testGeom.LinesPerPage())
	bases := []uint64{0, 700, 5000, 1 << 16, denseMaxPages - 2, denseMaxPages, denseMaxPages + 3, 1 << 40}
	return func() uint64 {
		page := bases[rng.Intn(len(bases))] + uint64(rng.Intn(3))
		return page*lpp + uint64(rng.Intn(int(lpp)))
	}
}

// straddled fails the test unless the stream it just ran filled the dense
// index to its bound and put pages in the sparse map too.
func straddled[S comparable](t *testing.T, x *pageIndex[S]) {
	t.Helper()
	if len(x.sparse) == 0 || len(x.dense) != denseMaxPages {
		t.Fatalf("stream stayed on one side of the bound: %d dense slots, %d sparse pages", len(x.dense), len(x.sparse))
	}
}

// TestPageTableMatchesMapOracle runs 20,000 seeded Touch/Home steps over page
// numbers on both sides of the dense bound and requires the placement table
// to answer exactly as the map-only one, page count included.
func TestPageTableMatchesMapOracle(t *testing.T) {
	const chips = 4
	pt, o := NewPageTable(testGeom, chips), newMapPageTable()
	rng := rand.New(rand.NewSource(15))
	pick := straddlingLines(rng)
	for step := 0; step < 20000; step++ {
		line, chip := pick(), rng.Intn(chips)
		if rng.Intn(3) == 0 {
			if got, want := pt.Home(line), o.home(line); got != want {
				t.Fatalf("step %d: Home(%d) = %d, oracle %d", step, line, got, want)
			}
		} else if got, want := pt.Touch(line, chip), o.touch(line, chip); got != want {
			t.Fatalf("step %d: Touch(%d, chip %d) = %d, oracle %d", step, line, chip, got, want)
		}
		if pt.Pages() != len(o.pages) {
			t.Fatalf("step %d: %d pages, oracle %d", step, pt.Pages(), len(o.pages))
		}
	}
	straddled(t, &pt.idx)
}

// TestCensusMatchesMapOracle is the same stream against the sharing census:
// every Classify along the way and the final FootprintBytes sums must equal
// the map-only oracle's.
func TestCensusMatchesMapOracle(t *testing.T) {
	const chips = 4
	c, o := NewCensus(testGeom, chips), newMapPageTable()
	rng := rand.New(rand.NewSource(15))
	pick := straddlingLines(rng)
	for step := 0; step < 20000; step++ {
		line, chip := pick(), rng.Intn(chips)
		if rng.Intn(3) == 0 {
			if got, want := c.Classify(line), o.classify(line); got != want {
				t.Fatalf("step %d: Classify(%d) = %v, oracle %v", step, line, got, want)
			}
			continue
		}
		c.Touch(line, chip)
		o.touch(line, chip)
		if c.idx.count != len(o.pages) {
			t.Fatalf("step %d: %d pages, oracle %d", step, c.idx.count, len(o.pages))
		}
	}
	straddled(t, &c.idx)
	gt, gs, gf := c.FootprintBytes()
	wt, ws, wf := o.footprint(int64(testGeom.LineBytes))
	if gt != wt || gs != ws || gf != wf {
		t.Fatalf("FootprintBytes = %d/%d/%d, oracle %d/%d/%d", gt, gs, gf, wt, ws, wf)
	}
}

// TestTouchNewPageAllocatesNothing pins the placement table's per-page cost:
// once the index covers a page number, first-touching it is a byte store.
func TestTouchNewPageAllocatesNothing(t *testing.T) {
	pt := NewPageTable(testGeom, 4)
	lpp := uint64(testGeom.LinesPerPage())
	pt.Touch(1000*lpp, 0) // grows the dense index past every page below
	page := uint64(0)
	if n := testing.AllocsPerRun(500, func() {
		pt.Touch(page*lpp, int(page%4))
		page++
	}); n != 0 {
		t.Fatalf("Touch of a new page inside the grown index allocates %v times, want 0", n)
	}
	if pt.Pages() < 500 {
		t.Fatalf("only %d pages placed", pt.Pages())
	}
}
