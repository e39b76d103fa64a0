// Package addr implements the address-mapping substrate of the multi-chip
// GPU: the PAE-style randomized hash that spreads lines across LLC slices
// and DRAM channels (Liu et al., ISCA 2018), and the first-touch page table
// that assigns each memory page to the memory partition of the chip that
// first accesses it (Arunkumar et al., ISCA 2017).
package addr

import "repro/internal/memsys"

// Mix64 is the splitmix64 finalizer, used throughout the simulator as a
// deterministic hash. It is the only source of "randomness" in the repo.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PAE implements the randomized (power-efficient) address mapping: a line is
// hashed to an LLC slice index within a chip and to a DRAM channel within
// its home partition. Hashing rather than bit-slicing removes the pathologic
// "valley" strides, making the uniform-distribution assumption behind
// B_mem in the EAB model hold (paper §3.3).
type PAE struct {
	slicesPerChip   int
	channelsPerChip int
	sliceMask       int // slicesPerChip-1 when a power of two, else -1
	salt            uint64
}

// NewPAE returns a mapper for the given per-chip slice and channel counts.
func NewPAE(slicesPerChip, channelsPerChip int) *PAE {
	if slicesPerChip <= 0 || channelsPerChip <= 0 {
		panic("addr: non-positive slice or channel count")
	}
	mask := -1
	if slicesPerChip&(slicesPerChip-1) == 0 {
		mask = slicesPerChip - 1
	}
	return &PAE{slicesPerChip: slicesPerChip, channelsPerChip: channelsPerChip, sliceMask: mask, salt: paeSalt}
}

const paeSalt = 0x5ac5ac5ac5ac5ac

// Slice returns the LLC slice index (within whichever chip serves the line)
// for a line index. The same line maps to the same slice index on every
// chip, so a memory-side lookup at the home chip and an SM-side lookup at
// the requesting chip use the same slice position — exactly the property the
// SAC routing switch relies on.
func (p *PAE) Slice(line uint64) int {
	h := Mix64(line ^ paeSalt)
	if p.sliceMask >= 0 {
		return int(h) & p.sliceMask // low bits: identical to % for powers of two
	}
	return int(h % uint64(p.slicesPerChip))
}

// Channel returns the DRAM channel index within the home chip's partition.
// Slices have point-to-point links to their memory controllers, so the
// channel is derived from the slice index to keep that pairing stable.
func (p *PAE) Channel(line uint64) int { return p.SliceChannel(p.Slice(line)) }

// SliceChannel returns the DRAM channel paired with an LLC slice index — the
// second half of Channel, for callers that already hashed the line to its
// slice.
func (p *PAE) SliceChannel(slice int) int {
	return slice * p.channelsPerChip / p.slicesPerChip
}

// SlicesPerChip returns the configured slice count.
func (p *PAE) SlicesPerChip() int { return p.slicesPerChip }

// ChannelsPerChip returns the configured channel count.
func (p *PAE) ChannelsPerChip() int { return p.channelsPerChip }

// PageTable implements first-touch page placement: the first chip to access
// any line of a page becomes the page's home. It also records, per page, a
// bitmask of the chips that have accessed each line — the raw material for
// classifying lines as non-shared, falsely shared or truly shared
// (paper §2.2) and for the working-set analysis of Figure 11.
type PageTable struct {
	geom  memsys.Geometry
	chips int
	// lpp is geom.LinesPerPage() and pageShift its log2 (-1 when not a
	// power of two), precomputed so the per-dispatch Touch path divides by
	// constants instead of re-deriving them from the geometry.
	lpp       int
	pageShift int
	// Pages are indexed densely: dense[page] for page numbers below
	// denseMaxPages (nil = untouched), grown on demand. Spec line spaces are
	// dense from 0 (region bases stack), so every synthetic workload lives
	// here and the per-dispatch Touch is a slice index, not a hash. The map
	// holds only page numbers at or above the bound, which trace replays
	// with arbitrary addresses can produce.
	dense  []*pageEntry
	sparse map[uint64]*pageEntry
	count  int // allocated pages, dense and sparse

	// One-entry memo of the most recently touched page: warp access streams
	// are page-local, so consecutive Touch/Home calls usually hit the same
	// page and skip the map lookup. Purely an access-path cache — contents
	// and results are unchanged.
	lastPage  uint64
	lastEntry *pageEntry
}

// denseMaxPages bounds the dense page index (the estimate rung's homeSlice
// uses the same bound): 4 Mi pages is a 16 GiB line space at 4 KiB pages and
// at most 32 MiB of index.
const denseMaxPages = 1 << 22

type pageEntry struct {
	home       int
	lineChips  []uint8 // per line within the page: bitmask of accessor chips
	chipsTouch uint8   // union of accessor chips for the whole page
}

// NewPageTable returns an empty first-touch page table for a system with the
// given chip count (at most 8 chips fit the bitmask; the paper uses 4).
func NewPageTable(geom memsys.Geometry, chips int) *PageTable {
	if chips <= 0 || chips > 8 {
		panic("addr: chip count must be in 1..8")
	}
	t := &PageTable{geom: geom, chips: chips, lpp: geom.LinesPerPage(), pageShift: -1, sparse: make(map[uint64]*pageEntry)}
	if t.lpp > 0 && geom.PageBytes%geom.LineBytes == 0 && t.lpp&(t.lpp-1) == 0 {
		s := 0
		for 1<<uint(s) < t.lpp {
			s++
		}
		t.pageShift = s
	}
	return t
}

// pageOf returns the page index of a line — geom.PageOfLine with the
// division strength-reduced to a shift when lines-per-page is a power of two
// (line >> log2(lpp) == line*LineBytes/PageBytes exactly when LineBytes
// divides PageBytes).
func (t *PageTable) pageOf(line uint64) uint64 {
	if t.pageShift >= 0 {
		return line >> uint(t.pageShift)
	}
	return t.geom.PageOfLine(line)
}

// entry returns a page's entry, or nil when the page was never touched.
func (t *PageTable) entry(page uint64) *pageEntry {
	if page < uint64(len(t.dense)) {
		return t.dense[page]
	}
	if page < denseMaxPages {
		return nil
	}
	return t.sparse[page]
}

// place allocates page to chip (its first toucher).
func (t *PageTable) place(page uint64, chip int) *pageEntry {
	e := &pageEntry{home: chip, lineChips: make([]uint8, t.lpp)}
	t.count++
	if page >= denseMaxPages {
		t.sparse[page] = e
		return e
	}
	if page >= uint64(len(t.dense)) {
		n := min(max(2*uint64(len(t.dense)), page+1, 1024), denseMaxPages)
		grown := make([]*pageEntry, n)
		copy(grown, t.dense)
		t.dense = grown
	}
	t.dense[page] = e
	return e
}

// Touch records an access by chip to the given line and returns the page's
// home chip, allocating the page to the toucher if this is the first access.
func (t *PageTable) Touch(line uint64, chip int) (home int) {
	page := t.pageOf(line)
	e := t.lastEntry
	if e == nil || page != t.lastPage {
		if e = t.entry(page); e == nil {
			e = t.place(page, chip)
		}
		t.lastPage, t.lastEntry = page, e
	}
	idx := int(line) - int(page)*t.lpp
	e.lineChips[idx] |= 1 << uint(chip)
	e.chipsTouch |= 1 << uint(chip)
	return e.home
}

// Home returns the home chip of a line's page, or -1 when the page has never
// been touched. It is a pure reader: it consults Touch's memo without
// refreshing it.
func (t *PageTable) Home(line uint64) int {
	page := t.pageOf(line)
	if e := t.lastEntry; e != nil && page == t.lastPage {
		return e.home
	}
	e := t.entry(page)
	if e == nil {
		return -1
	}
	return e.home
}

// Pages returns the number of allocated pages.
func (t *PageTable) Pages() int { return t.count }

// each calls f for every allocated page (dense pages in page order, then
// the sparse ones in map order; every caller computes an order-independent
// sum).
func (t *PageTable) each(f func(*pageEntry)) {
	for _, e := range t.dense {
		if e != nil {
			f(e)
		}
	}
	for _, e := range t.sparse {
		f(e)
	}
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

// Classify returns the sharing class of a line given the accesses recorded
// so far. Untouched lines classify as NonShared.
func (t *PageTable) Classify(line uint64) SharingClass {
	page := t.pageOf(line)
	e := t.entry(page)
	if e == nil {
		return NonShared
	}
	idx := int(line) - int(page)*t.lpp
	mask := e.lineChips[idx]
	if popcount8(mask) > 1 {
		return TrueShared
	}
	// Single accessor (or none): falsely shared if any chip other than that
	// accessor touched some line of the page.
	if e.chipsTouch&^mask != 0 && mask != 0 {
		return FalseShared
	}
	return NonShared
}

// FootprintBytes returns the total bytes of all lines ever touched,
// broken down by sharing class. This regenerates Table 4's Footprint,
// True-Shared and False-Shared columns.
func (t *PageTable) FootprintBytes() (total, trueShared, falseShared int64) {
	lineBytes := int64(t.geom.LineBytes)
	t.each(func(e *pageEntry) {
		for _, mask := range e.lineChips {
			if mask == 0 {
				continue
			}
			total += lineBytes
			if popcount8(mask) > 1 {
				trueShared += lineBytes
			} else if e.chipsTouch&^mask != 0 {
				falseShared += lineBytes
			}
		}
	})
	return total, trueShared, falseShared
}

// HomeHistogram returns how many pages are homed on each chip — useful for
// verifying that first-touch placement spreads pages under distributed CTA
// scheduling.
func (t *PageTable) HomeHistogram() []int {
	h := make([]int, t.chips)
	t.each(func(e *pageEntry) { h[e.home]++ })
	return h
}

// Reset drops all placement and sharing state (between whole-application
// runs; kernel boundaries do NOT reset placement).
func (t *PageTable) Reset() {
	t.dense = nil
	t.sparse = make(map[uint64]*pageEntry)
	t.count = 0
	t.lastPage, t.lastEntry = 0, nil
}

func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
