// Package workload generates the synthetic GPU kernels that stand in for
// the paper's 16 CUDA benchmarks (Rodinia, Polybench, Tango, Nvidia SDK,
// Parboil). Each benchmark is a deterministic address-stream specification
// parameterized by Table 4 of the paper — CTA count, footprint, truly-shared
// and falsely-shared megabytes — plus locality knobs (block size, reuse,
// passes, truly-shared window) that reproduce the sharing *structure* the
// paper measures in Figure 11.
//
// A kernel's address space is split into three regions:
//
//   - private: page-aligned per-chip blocks, partitioned across the chip's
//     warps; every page is touched by exactly one chip → non-shared lines.
//   - false:   pages whose lines are statically partitioned across chips
//     (chip k owns lines [k*q, (k+1)*q) of every page); every page is
//     touched by all chips but every line by exactly one → falsely shared.
//   - true:    lines accessed by every chip. Chips walk the region in
//     synchronized windows: all chips' warps cover the same window of
//     TrueWindow lines at roughly the same time, then advance. A small
//     window (SM-side-preferred benchmarks) replicates cheaply across
//     chips; a window that exceeds per-chip LLC capacity (memory-side-
//     preferred benchmarks) thrashes when replicated.
//
// Streams depend only on (benchmark, machine shape, chip, sm, warp) — never
// on timing — so the same workload replays identically under every LLC
// organization.
package workload

import (
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/memsys"
)

// Machine describes the shape of the simulated GPU the streams are built
// for. Scale divides all full-scale region sizes (see DESIGN.md §7).
type Machine struct {
	Chips      int
	SMsPerChip int
	WarpsPerSM int
	Geom       memsys.Geometry
	Scale      int // footprint divisor; 1 = paper scale
}

// WarpsPerChip returns the number of warps per chip.
func (m Machine) WarpsPerChip() int { return m.SMsPerChip * m.WarpsPerSM }

// TotalWarps returns the warps across all chips.
func (m Machine) TotalWarps() int { return m.Chips * m.WarpsPerChip() }

// Validate checks the machine shape.
func (m Machine) Validate() error {
	if m.Chips < 1 || m.SMsPerChip < 1 || m.WarpsPerSM < 1 {
		return fmt.Errorf("workload: non-positive machine shape %+v", m)
	}
	if m.Scale < 1 {
		return fmt.Errorf("workload: scale must be >= 1, got %d", m.Scale)
	}
	return m.Geom.Validate()
}

// Kernel parameterizes one kernel invocation's address stream.
type Kernel struct {
	Name string

	// Region footprints at full (paper) scale, in MB.
	PrivateMB float64
	FalseMB   float64
	TrueMB    float64

	// Locality structure.
	BlockLines    int     // private/false walk block (lines walked ReuseX times)
	ReusePriv     int     // consecutive passes over each private block
	ReuseFalse    int     // consecutive passes over each false block
	ReuseTrue     int     // rotated long-range passes over each true window
	SharersTrue   int     // SMs of a chip reading each true line concurrently (default 1)
	PassesPriv    int     // full passes over the private share
	PassesFalse   int     // rotated passes over each false window (intra-chip sharers)
	TrueWindowMB  float64 // hot truly-shared window (0 = whole region)
	FalseWindowMB float64 // hot falsely-shared window (0 = whole region)

	// Intensity.
	WriteFrac  float64 // fraction of accesses that are stores
	ComputeGap int     // average cycles between a warp's memory ops
}

// Spec is a benchmark: a sequence of kernels repeated Repeats times.
type Spec struct {
	Name    string
	Suite   string
	CTAs    int
	SMSide  bool // the paper's ground-truth grouping (top half of Table 4)
	Kernels []Kernel
	Repeats int // times the kernel sequence runs (>=1)
}

// KernelCount returns the total number of kernel invocations.
func (s Spec) KernelCount() int {
	r := s.Repeats
	if r < 1 {
		r = 1
	}
	return r * len(s.Kernels)
}

// KernelAt returns the kernel spec of invocation i (0-based) across repeats.
func (s Spec) KernelAt(i int) Kernel { return s.Kernels[i%len(s.Kernels)] }

// Layout fixes the line-index geography of one kernel at one machine scale.
type Layout struct {
	Geom memsys.Geometry

	PrivBase   uint64 // first private line
	PrivLines  int    // total private lines (page-multiple)
	FalseBase  uint64
	FalseLines int // total false lines (page-multiple)
	TrueBase   uint64
	TrueLines  int

	WindowLines      int // truly-shared window (<= TrueLines)
	FalseWindowPages int // falsely-shared window, in pages
}

// TotalLines returns the kernel's total footprint in lines.
func (l Layout) TotalLines() int { return l.PrivLines + l.FalseLines + l.TrueLines }

func mbToLines(mb float64, scale int, lineBytes int) int {
	lines := int(mb * 1024 * 1024 / float64(scale) / float64(lineBytes))
	return lines
}

func roundUpTo(v, m int) int {
	if m <= 0 {
		return v
	}
	return (v + m - 1) / m * m
}

// LayoutFor computes the region geography of kernel k on machine m. Kernels
// of the same benchmark share one address space (regions at the same bases),
// so data placed by one kernel is reused by the next — the substrate for the
// per-kernel behaviour of Figure 12.
func (s Spec) LayoutFor(ki int, m Machine) Layout {
	// Use the maximum region sizes across the benchmark's kernels for the
	// shared bases so that kernels overlay consistently.
	var maxPriv, maxFalse, maxTrue int
	lpp := m.Geom.LinesPerPage()
	for _, k := range s.Kernels {
		maxPriv = max(maxPriv, roundUpTo(mbToLines(k.PrivateMB, m.Scale, m.Geom.LineBytes), lpp*m.Chips))
		maxFalse = max(maxFalse, roundUpTo(mbToLines(k.FalseMB, m.Scale, m.Geom.LineBytes), lpp))
		maxTrue = max(maxTrue, roundUpTo(mbToLines(k.TrueMB, m.Scale, m.Geom.LineBytes), lpp))
	}
	k := s.KernelAt(ki)
	priv := roundUpTo(mbToLines(k.PrivateMB, m.Scale, m.Geom.LineBytes), lpp*m.Chips)
	fal := roundUpTo(mbToLines(k.FalseMB, m.Scale, m.Geom.LineBytes), lpp)
	tru := roundUpTo(mbToLines(k.TrueMB, m.Scale, m.Geom.LineBytes), lpp)

	l := Layout{Geom: m.Geom}
	l.PrivBase = 0
	l.PrivLines = priv
	l.FalseBase = uint64(roundUpTo(maxPriv, lpp))
	l.FalseLines = fal
	l.TrueBase = l.FalseBase + uint64(roundUpTo(maxFalse, lpp))
	l.TrueLines = tru

	if k.TrueWindowMB > 0 {
		w := mbToLines(k.TrueWindowMB, m.Scale, m.Geom.LineBytes)
		l.WindowLines = max(min(w, tru), min(tru, lpp))
	} else {
		l.WindowLines = tru
	}
	falsePages := fal / lpp
	if k.FalseWindowMB > 0 {
		w := mbToLines(k.FalseWindowMB, m.Scale, m.Geom.LineBytes) / lpp
		l.FalseWindowPages = max(min(w, falsePages), min(falsePages, 1))
	} else {
		l.FalseWindowPages = falsePages
	}
	return l
}

// Access is one memory operation of a warp's stream.
type Access struct {
	Line uint64
	Kind memsys.AccessKind
	Gap  int // compute cycles the warp spends before issuing this access
}

// AccessStream is the per-warp sequence consumed by the simulator. The
// synthetic Stream implements it; so do trace replays.
type AccessStream interface {
	// Next returns the stream's next access; ok is false when exhausted.
	Next() (Access, bool)
	// Len returns the total number of accesses the stream produces.
	Len() int64
}

// Stream produces one warp's deterministic access sequence. It is a stride
// (deficit) scheduler over up to three region walks, so the region mix stays
// smooth over time and all walks finish together. The walks are held by
// value, one field per region kind, so a stream is one record; the
// scheduler's arrays are indexed by kind, and a region the warp does not
// walk owes no accesses.
type Stream struct {
	priv    blockWalker
	fals    falseWalker
	tru     trueWalker
	left    [3]int64 // accesses each walk still owes
	credit  [3]int64
	share   [3]int64
	total   int64
	emitted int64
	salt    uint64
	write   uint64 // writeFrac in parts per 1<<16
	gap     int
}

// The walk kinds, in the order the scheduler breaks credit ties.
const (
	walkPriv = iota
	walkFalse
	walkTrue
)

// Len returns the total number of accesses the stream will produce.
func (st *Stream) Len() int64 { return st.total }

// Next returns the stream's next access; ok is false when exhausted.
func (st *Stream) Next() (Access, bool) {
	// Stride-schedule: pick the walk with the highest credit.
	best := -1
	var bestCredit int64
	for i := range st.left {
		if st.left[i] <= 0 {
			continue
		}
		st.credit[i] += st.share[i]
		if best == -1 || st.credit[i] > bestCredit {
			best, bestCredit = i, st.credit[i]
		}
	}
	if best < 0 {
		return Access{}, false
	}
	st.credit[best] -= st.total
	st.left[best]--
	var line uint64
	switch best {
	case walkPriv:
		line = st.priv.next()
	case walkFalse:
		line = st.fals.next()
	default:
		line = st.tru.next()
	}
	st.emitted++
	kind := memsys.Read
	h := addr.Mix64(st.salt ^ uint64(st.emitted)<<1)
	if st.write > 0 && h&0xffff < st.write {
		kind = memsys.Write
	}
	gap := st.gap
	if gap > 1 {
		// Jitter the gap ±25% so warps do not lock-step.
		gap += int((h>>16)%uint64(gap/2+1)) - gap/4
	}
	return Access{Line: line, Kind: kind, Gap: gap}, true
}

// blockWalker walks a contiguous share of lines in blocks: each block of
// blockLines is walked reuse times before advancing; the whole share is
// covered passes times. Its place is kept incrementally — block start,
// offset in the block, accesses left in the block's round — so a step
// divides nothing.
type blockWalker struct {
	base  uint64
	lines int64
	block int64
	reuse int64
	start int64 // first line of the current block
	off   int64 // offset in the block, cycling 0..block-1 through the round
	round int64 // accesses left in the current block's round
	total int64 // accesses over all passes
}

// The walkers are set up in place, in the zeroed Stream that holds them: a
// walker built by value and copied in is copied two or three times over,
// which cost a third of stream set-up in the profile. init reports false,
// leaving the walker unused, when the warp has nothing to walk.

func (w *blockWalker) init(base uint64, lines, block, reuse, passes int) bool {
	if lines <= 0 {
		return false
	}
	if block <= 0 || int64(block) > int64(lines) {
		block = lines
	}
	if reuse < 1 {
		reuse = 1
	}
	if passes < 1 {
		passes = 1
	}
	w.base, w.lines, w.block, w.reuse = base, int64(lines), int64(block), int64(reuse)
	w.total = int64(lines) * int64(reuse) * int64(passes)
	w.round = w.roundLen()
	return true
}

// roundLen is the number of accesses in the round of the block at start:
// reuse walks of the block, or of the lines left for a short tail block.
func (w *blockWalker) roundLen() int64 { return min(w.block, w.lines-w.start) * w.reuse }

func (w *blockWalker) next() uint64 {
	line := w.start + w.off
	if line >= w.lines { // tail block shorter than block size
		line = w.lines - 1 - (line - w.lines)
	}
	w.off++
	if w.off == w.block {
		w.off = 0
	}
	w.round--
	if w.round == 0 {
		w.off = 0
		w.start += w.block
		if w.start >= w.lines { // next pass
			w.start = 0
		}
		w.round = w.roundLen()
	}
	return w.base + uint64(line)
}

// rotor enumerates the rotated slot walk of the false walker (the true
// walker steps its slices the same way). A region of n items is divided
// into warps slots; the walk performs a number of passes, and in pass p the
// warp covers slot (warpIdx + p*rot) mod warps — with rot equal to the
// machine's warps-per-SM so that consecutive passes land the same items in
// a *different SM's* warp. Per-warp consecutive reuse would be absorbed by
// the private L1; rotated reuse reaches the LLC, producing the intra-chip
// line sharing that GPU kernels exhibit (many SMs reading the same tiles)
// and that the LLC organizations of the paper differ on.
type rotor struct {
	sl       sliceWalk // the current pass's slot
	passes   int64
	pass     int64
	off      int64
	perRound int64 // total items this warp touches across all passes
}

func (r *rotor) init(n, warps, warpID, rot, passes int64) {
	if passes < 1 {
		passes = 1
	}
	if rot < 1 {
		rot = 1
	}
	r.sl.init(n, warps, warpID%warps, rot%warps)
	r.passes = passes
	for p := int64(0); p < passes; p++ {
		r.perRound += r.sl.hi - r.sl.lo
		r.sl.step()
	}
	r.sl.first()
}

// skipEmpty advances past empty slots; callers must only invoke it while
// the rotor has items remaining overall (perRound > 0).
func (r *rotor) skipEmpty() {
	for r.sl.hi <= r.sl.lo {
		r.advancePass()
	}
}

// item returns the current item index without advancing.
func (r *rotor) item() int64 {
	r.skipEmpty()
	return r.sl.lo + r.off
}

// next advances to the following item; wrapped reports that the walk
// finished its last pass and started over.
func (r *rotor) next() (wrapped bool) {
	r.skipEmpty()
	r.off++
	if r.off >= r.sl.hi-r.sl.lo {
		r.off = 0
		wrapped = r.advancePass()
	}
	return wrapped
}

func (r *rotor) advancePass() (wrapped bool) {
	r.pass++
	if r.pass >= r.passes {
		r.pass = 0
		r.sl.first()
		return true
	}
	r.sl.step()
	return false
}

// sliceWalk steps through the slots of a rotated walk without dividing.
// [0,n) is split into parts near-equal slices, slot i being
// splitRange(n, parts, i); the walk starts at slot0 and each step moves rot
// slots on, mod parts (0 <= slot0 < parts, 0 <= rot <= parts). A step adds
// n*rot/parts to the slice start and carries the remainder, and a slice's
// end is its start plus n/parts, plus one when the remainders carry, so
// only set-up divides.
type sliceWalk struct {
	lo, hi       int64 // the current slot's slice
	rem          int64 // n*slot mod parts: the fraction lo rounded away
	lo0, rem0    int64 // slot0's lo and rem
	n, parts     int64
	stepQ, stepR int64 // n*rot = stepQ*parts + stepR
	sizeQ, sizeR int64 // n = sizeQ*parts + sizeR
}

func (s *sliceWalk) init(n, parts, slot0, rot int64) {
	s.lo0, s.rem0 = n*slot0/parts, n*slot0%parts
	s.n, s.parts = n, parts
	s.stepQ, s.stepR = n*rot/parts, n*rot%parts
	s.sizeQ, s.sizeR = n/parts, n%parts
	s.first()
}

// first returns to slot0.
func (s *sliceWalk) first() {
	s.lo, s.rem = s.lo0, s.rem0
	s.setHi()
}

// step moves rot slots on. Past the last slot the slice start has reached
// n (n*slot/parts >= n exactly when slot >= parts), and wrapping the slot
// by parts moves it back by exactly n.
func (s *sliceWalk) step() {
	s.lo += s.stepQ
	s.rem += s.stepR
	if s.rem >= s.parts {
		s.rem -= s.parts
		s.lo++
	}
	if s.lo >= s.n {
		s.lo -= s.n
	}
	s.setHi()
}

func (s *sliceWalk) setHi() {
	s.hi = s.lo + s.sizeQ
	if s.rem+s.sizeR >= s.parts {
		s.hi++
	}
}

// falseWalker walks the chip's quarter of every page of the false region:
// chip k owns lines [k*q, (k+1)*q) of each page. The chip's warps cover the
// page sequence in rotated slots (see rotor), so each page quarter is
// re-read by PassesFalse different SMs of the chip — falsely-shared lines
// with intra-chip LLC-level reuse.
type falseWalker struct {
	base     uint64 // the chip's first line of the region's page 0
	lpp      int64  // lines per page
	q        int64  // lines per page per chip
	pages    int64  // total pages in the region
	winPages int64  // pages per window
	rot      rotor  // rotated slots over the pages of one window
	winStart int64  // first page of the current window, mod pages
	inPage   int64  // line offset within the current page's quarter
	total    int64
}

// init sets the walker up for warp warpInChip of chip; the false region's
// inner line reuse is L1-absorbed, rotation supplies its LLC reuse, so only
// the pass count is a parameter.
func (w *falseWalker) init(l *Layout, m *Machine, chip, warpInChip, passes int) bool {
	if l.FalseLines <= 0 {
		return false
	}
	lpp := int64(l.Geom.LinesPerPage())
	pages := int64(l.FalseLines) / lpp
	if pages == 0 {
		return false
	}
	winPages := int64(l.FalseWindowPages)
	if winPages <= 0 || winPages > pages {
		winPages = pages
	}
	w.q = lpp / int64(m.Chips)
	w.base = l.FalseBase + uint64(int64(chip)*w.q)
	w.lpp, w.pages, w.winPages = lpp, pages, winPages
	w.rot.init(winPages, int64(m.WarpsPerChip()), int64(warpInChip), int64(m.WarpsPerSM), int64(passes))
	w.total = w.rot.perRound * w.q * ((pages + winPages - 1) / winPages)
	return w.total > 0
}

func (w *falseWalker) next() uint64 {
	// Window w covers pages [w*winPages, (w+1)*winPages) mod pages; winPages
	// <= pages, so both sums below wrap at most once.
	page := w.winStart + w.rot.item()
	if page >= w.pages {
		page -= w.pages
	}
	line := w.base + uint64(page*w.lpp+w.inPage)
	w.inPage++
	if w.inPage >= w.q {
		w.inPage = 0
		if w.rot.next() {
			w.winStart += w.winPages
			if w.winStart >= w.pages {
				w.winStart -= w.pages
			}
		}
	}
	return line
}

// trueWalker walks the truly-shared region in globally synchronized windows.
// Window t covers lines [t*W, (t+1)*W) of the region (mod region size).
//
// Within a window, the chip's warps are organized along two sharing axes
// that real GPU kernels exhibit:
//
//   - SharersTrue warps — from different SMs of the chip — walk the same
//     window slice concurrently (SMs reading the same tile at the same
//     time). This short-range sharing is capacity-insensitive: under an
//     SM-side LLC the first sharer fetches and the rest hit locally, while
//     under a memory-side LLC the extra accesses hit at the line's home
//     chip, across the ring. It is also immediately visible to the CRD
//     during SAC's profiling window.
//   - ReuseTrue rotated passes re-walk the window long-range (slices rotate
//     across warps between passes). This reuse is capacity-sensitive: it
//     only hits if the (possibly replicated) window survived in the LLC —
//     the axis on which the organizations' capacities differ.
//
// All chips share the schedule, so every line is accessed by all chips
// within the same period — truly shared.
type trueWalker struct {
	base   uint64 // first line of the region
	wlines int64  // lines per window
	lines  int64  // lines in the region
	reuse  int64  // long-range passes per window

	// sl is the current pass's window slice. Slices are cut for the chip's
	// concurrent-sharer groups (warpsPerChip / SharersTrue), starting at
	// this warp's group, and rotate between passes by a warps-per-SM stride
	// so long-range revisits come from other SMs (same-SM revisits would be
	// absorbed by the L1).
	sl       sliceWalk
	winStart int64 // first line of the current window, mod lines
	pass     int64
	cur      int64 // next line of the slice, counted from the window start

	total int64
}

func (w *trueWalker) init(l *Layout, m *Machine, warpInChip, reuse, sharers int) bool {
	if l.TrueLines <= 0 {
		return false
	}
	if reuse < 1 {
		reuse = 1
	}
	if sharers < 1 {
		sharers = 1
	}
	slots := int64(m.WarpsPerChip()) / int64(sharers)
	if slots < 1 {
		slots = 1
	}
	rot := int64(m.WarpsPerSM) % slots
	if rot == 0 {
		rot = 1
	}
	w.base, w.wlines, w.lines, w.reuse = l.TrueBase, int64(l.WindowLines), int64(l.TrueLines), int64(reuse)
	w.sl.init(w.wlines, slots, int64(warpInChip)%slots, rot)
	var perWin int64
	for p := int64(0); p < w.reuse; p++ {
		perWin += w.sl.hi - w.sl.lo
		w.sl.step()
	}
	w.total = perWin * ((w.lines + w.wlines - 1) / w.wlines)
	w.sl.first()
	w.cur = w.sl.lo
	return w.total > 0
}

func (w *trueWalker) next() uint64 {
	for w.cur >= w.sl.hi { // slice done, or empty
		w.advance()
	}
	// The window is at most the region (LayoutFor), so the sum wraps at
	// most once.
	line := w.winStart + w.cur
	if line >= w.lines {
		line -= w.lines
	}
	w.cur++
	return w.base + uint64(line)
}

func (w *trueWalker) advance() {
	w.pass++
	if w.pass >= w.reuse {
		w.pass = 0
		w.winStart += w.wlines
		if w.winStart >= w.lines {
			w.winStart -= w.lines
		}
		w.sl.first()
	} else {
		w.sl.step()
	}
	w.cur = w.sl.lo
}

// splitRange divides [0,n) into parts near-equal slices and returns slice i.
func splitRange(n, parts, i int64) (lo, hi int64) {
	lo = n * i / parts
	hi = n * (i + 1) / parts
	return lo, hi
}

// NewStream builds the access stream of warp (chip, sm, warp) for kernel ki
// of spec s on machine m.
func (s Spec) NewStream(m Machine, ki, chip, sm, warp int) *Stream {
	k, l := s.KernelAt(ki), s.LayoutFor(ki, m)
	st := new(Stream)
	st.init(&k, &l, &m, ki, chip, sm, warp)
	return st
}

// AppendStreams appends the streams of every warp of kernel ki, in (chip,
// sm, warp) order, to dst and returns the extended slice: what NewStream
// builds warp by warp, with the layout computed once per kernel and no
// allocation when dst has room for m.TotalWarps() more.
func (s Spec) AppendStreams(dst []Stream, m Machine, ki int) []Stream {
	k, l := s.KernelAt(ki), s.LayoutFor(ki, m)
	i := len(dst)
	dst = slices.Grow(dst, m.TotalWarps())[:i+m.TotalWarps()]
	clear(dst[i:])
	for chip := 0; chip < m.Chips; chip++ {
		for sm := 0; sm < m.SMsPerChip; sm++ {
			for warp := 0; warp < m.WarpsPerSM; warp++ {
				dst[i].init(&k, &l, &m, ki, chip, sm, warp)
				i++
			}
		}
	}
	return dst
}

// init sets up a zeroed st as warp (chip, sm, warp)'s stream of kernel k,
// invocation ki, laid out by l.
func (st *Stream) init(k *Kernel, l *Layout, m *Machine, ki, chip, sm, warp int) {
	warpInChip := sm*m.WarpsPerSM + warp
	st.salt = addr.Mix64(uint64(chip)<<40 ^ uint64(sm)<<20 ^ uint64(warp)<<4 ^ uint64(ki))
	st.write = uint64(k.WriteFrac * (1 << 16))
	st.gap = max(k.ComputeGap, 0)

	// Private walk: chip-block (page aligned), then warp slice.
	if l.PrivLines > 0 {
		chipLines := int64(l.PrivLines) / int64(m.Chips)
		lo, hi := splitRange(chipLines, int64(m.WarpsPerChip()), int64(warpInChip))
		base := l.PrivBase + uint64(int64(chip)*chipLines+lo)
		if st.priv.init(base, int(hi-lo), k.BlockLines, k.ReusePriv, k.PassesPriv) {
			st.left[walkPriv] = st.priv.total
		}
	}
	if st.fals.init(l, m, chip, warpInChip, k.PassesFalse) {
		st.left[walkFalse] = st.fals.total
	}
	if st.tru.init(l, m, warpInChip, k.ReuseTrue, k.SharersTrue) {
		st.left[walkTrue] = st.tru.total
	}
	st.share = st.left
	st.total = st.left[walkPriv] + st.left[walkFalse] + st.left[walkTrue]
}

// SourceName implements the simulator's workload-source interface.
func (s Spec) SourceName() string { return s.Name }

// KernelName returns the name of kernel invocation i.
func (s Spec) KernelName(i int) string { return s.KernelAt(i).Name }

// Stream returns warp (chip, sm, warp)'s access stream for kernel ki as an
// AccessStream (the interface the simulator consumes).
func (s Spec) Stream(m Machine, ki, chip, sm, warp int) AccessStream {
	return s.NewStream(m, ki, chip, sm, warp)
}
