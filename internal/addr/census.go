package addr

import (
	"math/bits"

	"repro/internal/memsys"
)

// Census records, per page, a bitmask of the chips that have accessed each
// line — the raw material for classifying lines as non-shared, falsely
// shared or truly shared (paper §2.2), for Table 4's footprint columns and
// for the working-set analysis of Figure 11. It is an offline analysis
// structure: the simulator places pages with PageTable and never builds one.
type Census struct {
	idx pageIndex[*censusPage]
}

type censusPage struct {
	lineChips  []uint8 // per line within the page: bitmask of accessor chips
	chipsTouch uint8   // union of accessor chips for the whole page
}

// NewCensus returns an empty sharing census.
func NewCensus(geom memsys.Geometry, chips int) *Census {
	return &Census{idx: newPageIndex[*censusPage](geom, chips)}
}

// Touch records an access by chip to the given line.
func (c *Census) Touch(line uint64, chip int) {
	x := &c.idx
	page := x.pageOf(line)
	e := x.get(page)
	if e == nil {
		e = &censusPage{lineChips: make([]uint8, x.lpp)}
		x.put(page, e)
	}
	x.lastPage, x.last = page, e
	e.lineChips[int(line)-int(page)*x.lpp] |= 1 << uint(chip)
	e.chipsTouch |= 1 << uint(chip)
}

// SharingClass classifies a line according to the paper's §2.2 definitions.
type SharingClass uint8

const (
	// NonShared — the line is accessed by one chip and no other line of its
	// page is accessed by another chip.
	NonShared SharingClass = iota
	// FalseShared — the line is accessed by a single chip, but some other
	// line of the same page is accessed by a different chip.
	FalseShared
	// TrueShared — the line is accessed by multiple chips.
	TrueShared
)

func (c SharingClass) String() string {
	switch c {
	case NonShared:
		return "non-shared"
	case FalseShared:
		return "false-shared"
	case TrueShared:
		return "true-shared"
	default:
		return "unknown"
	}
}

// class returns the sharing class of a touched line (mask != 0) of e.
func (e *censusPage) class(mask uint8) SharingClass {
	switch {
	case bits.OnesCount8(mask) > 1:
		return TrueShared
	case e.chipsTouch&^mask != 0:
		// Single accessor: falsely shared if any other chip touched some
		// line of the page.
		return FalseShared
	}
	return NonShared
}

// Classify returns the sharing class of a line given the accesses recorded
// so far. Untouched lines classify as NonShared.
func (c *Census) Classify(line uint64) SharingClass {
	page := c.idx.pageOf(line)
	e := c.idx.get(page)
	if e == nil {
		return NonShared
	}
	mask := e.lineChips[int(line)-int(page)*c.idx.lpp]
	if mask == 0 {
		return NonShared
	}
	return e.class(mask)
}

// FootprintBytes returns the total bytes of all lines ever touched,
// broken down by sharing class. This regenerates Table 4's Footprint,
// True-Shared and False-Shared columns.
func (c *Census) FootprintBytes() (total, trueShared, falseShared int64) {
	lineBytes := int64(c.idx.geom.LineBytes)
	page := func(e *censusPage) {
		for _, mask := range e.lineChips {
			if mask == 0 {
				continue
			}
			total += lineBytes
			switch e.class(mask) {
			case TrueShared:
				trueShared += lineBytes
			case FalseShared:
				falseShared += lineBytes
			}
		}
	}
	// Dense pages in page order, then the sparse ones in map order: the sums
	// are order-independent.
	for _, e := range c.idx.dense {
		if e != nil {
			page(e)
		}
	}
	for _, e := range c.idx.sparse {
		page(e)
	}
	return total, trueShared, falseShared
}
