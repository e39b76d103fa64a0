// Package addr implements the address-mapping substrate of the multi-chip
// GPU: the PAE-style randomized hash that spreads lines across LLC slices
// and DRAM channels (Liu et al., ISCA 2018), the first-touch page table
// that assigns each memory page to the memory partition of the chip that
// first accesses it (Arunkumar et al., ISCA 2017), and the per-line sharing
// census behind the paper's offline analyses (census.go).
package addr

import (
	"math/bits"

	"repro/internal/memsys"
)

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

// denseMaxPages bounds the dense page index: 4 Mi pages is a 16 GiB line
// space at 4 KiB pages, and at most 4 MiB of placement index.
const denseMaxPages = 1 << 22

// pageIndex maps page numbers to one slot of type S each; the zero S means
// "never touched". Pages below denseMaxPages are indexed densely (dense[page],
// grown on demand): Spec line spaces are dense from 0 (region bases stack),
// so every synthetic workload lives there and a lookup is a slice index, not
// a hash. The map holds only page numbers at or above the bound, which no
// shipped workload reaches: only tests' straddle workloads, shifted past the
// bound, exercise it. PageTable and Census are the two slot types.
type pageIndex[S comparable] struct {
	// One-entry memo of the most recently touched page (valid when last is
	// non-zero): warp access streams are page-local, so consecutive lookups
	// usually hit the same page and skip the index. Purely an access-path
	// cache — contents and results are unchanged. It leads the record so the
	// memo hit reads one host line.
	last     S
	sparse   map[uint64]S
	dense    []S
	lastPage uint64
	// lpp is geom.LinesPerPage() and pageShift its log2 (-1 when not a
	// power of two), precomputed so the per-access path divides by constants
	// instead of re-deriving them from the geometry.
	pageShift int
	lpp       int
	count     int // touched pages, dense and sparse
	geom      memsys.Geometry
}

// newPageIndex returns an empty index for a system with the given chip count
// (at most 8 chips fit the census's per-line bitmask; the paper uses 4).
func newPageIndex[S comparable](geom memsys.Geometry, chips int) pageIndex[S] {
	if chips <= 0 || chips > 8 {
		panic("addr: chip count must be in 1..8")
	}
	x := pageIndex[S]{geom: geom, lpp: geom.LinesPerPage(), pageShift: -1, sparse: make(map[uint64]S)}
	if x.lpp > 0 && geom.PageBytes%geom.LineBytes == 0 && x.lpp&(x.lpp-1) == 0 {
		x.pageShift = bits.TrailingZeros(uint(x.lpp))
	}
	return x
}

// pageOf returns the page index of a line — geom.PageOfLine with the
// division strength-reduced to a shift when lines-per-page is a power of two
// (line >> log2(lpp) == line*LineBytes/PageBytes exactly when LineBytes
// divides PageBytes).
func (x *pageIndex[S]) pageOf(line uint64) uint64 {
	if x.pageShift >= 0 {
		return line >> uint(x.pageShift)
	}
	return x.geom.PageOfLine(line)
}

// get returns a page's slot, zero when the page was never touched. It is a
// pure reader: it consults the memo without refreshing it.
func (x *pageIndex[S]) get(page uint64) S {
	var zero S
	if page == x.lastPage && x.last != zero {
		return x.last
	}
	if page < uint64(len(x.dense)) {
		return x.dense[page]
	}
	if page < denseMaxPages {
		return zero
	}
	return x.sparse[page]
}

// put stores the slot of a page on its first touch.
func (x *pageIndex[S]) put(page uint64, s S) {
	x.count++
	if page >= denseMaxPages {
		x.sparse[page] = s
		return
	}
	if page >= uint64(len(x.dense)) {
		n := min(max(2*uint64(len(x.dense)), page+1, 1024), denseMaxPages)
		grown := make([]S, n)
		copy(grown, x.dense)
		x.dense = grown
	}
	x.dense[page] = s
}

// PageTable implements first-touch page placement: the first chip to access
// any line of a page becomes the page's home. That is all it records — one
// byte per page (home chip + 1), no per-line state; the sharing classes of
// §2.2 are the Census's job.
type PageTable struct {
	idx pageIndex[uint8]
}

// NewPageTable returns an empty first-touch page table.
func NewPageTable(geom memsys.Geometry, chips int) *PageTable {
	return &PageTable{idx: newPageIndex[uint8](geom, chips)}
}

// Reset empties the table into the state NewPageTable built it in, keeping
// the dense index's storage.
func (t *PageTable) Reset() {
	x := &t.idx
	clear(x.dense)
	clear(x.sparse)
	x.last, x.lastPage, x.count = 0, 0, 0
}

// Touch returns the home chip of the line's page, allocating the page to
// chip if this is its first access.
func (t *PageTable) Touch(line uint64, chip int) (home int) {
	x := &t.idx
	page := x.pageOf(line)
	h := x.get(page)
	if h == 0 {
		h = uint8(chip) + 1
		x.put(page, h)
	}
	x.lastPage, x.last = page, h
	return int(h) - 1
}

// Home returns the home chip of a line's page, or -1 when the page has never
// been touched.
func (t *PageTable) Home(line uint64) int {
	return int(t.idx.get(t.idx.pageOf(line))) - 1
}

// Pages returns the number of allocated pages.
func (t *PageTable) Pages() int { return t.idx.count }
