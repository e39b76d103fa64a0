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
// smooth over time and all walks finish together.
type Stream struct {
	walks   [3]walker // the first n are set
	credit  [3]int64
	share   [3]int64
	n       int
	total   int64
	emitted int64
	salt    uint64
	write   uint64 // writeFrac in parts per 1<<16
	gap     int
}

type walker interface {
	next() uint64 // next line; only called while remaining() > 0
	remaining() int64
}

// Len returns the total number of accesses the stream will produce.
func (st *Stream) Len() int64 { return st.total }

// Next returns the stream's next access; ok is false when exhausted.
func (st *Stream) Next() (Access, bool) {
	// Stride-schedule: pick the walk with the highest credit.
	best := -1
	var bestCredit int64
	for i, w := range st.walks[:st.n] {
		if w.remaining() <= 0 {
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
	line := st.walks[best].next()
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
// covered passes times.
type blockWalker struct {
	base   uint64
	lines  int64
	block  int64
	reuse  int64
	passes int64
	pos    int64 // access counter
}

func newBlockWalker(base uint64, lines, block, reuse, passes int) *blockWalker {
	if lines <= 0 {
		return nil
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
	return &blockWalker{
		base: base, lines: int64(lines), block: int64(block),
		reuse: int64(reuse), passes: int64(passes),
	}
}

func (w *blockWalker) remaining() int64 {
	return w.lines*w.reuse*w.passes - w.pos
}

func (w *blockWalker) next() uint64 {
	perPass := w.lines * w.reuse
	inPass := w.pos % perPass
	blockIdx := inPass / (w.block * w.reuse)
	inBlock := inPass % (w.block * w.reuse) % w.block
	line := blockIdx*w.block + inBlock
	if line >= w.lines { // tail block shorter than block size
		line = w.lines - 1 - (line - w.lines)
	}
	w.pos++
	return w.base + uint64(line)
}

// rotor enumerates the rotated slot walk shared by the false and true
// walkers. A region of n items is divided into warps slots; the walk
// performs a number of passes, and in pass p the warp covers slot
// (warpIdx + p*rot) mod warps — with rot equal to the machine's warps-per-SM
// so that consecutive passes land the same items in a *different SM's*
// warp. Per-warp consecutive reuse would be absorbed by the private L1;
// rotated reuse reaches the LLC, producing the intra-chip line sharing that
// GPU kernels exhibit (many SMs reading the same tiles) and that the LLC
// organizations of the paper differ on.
type rotor struct {
	n      int64 // items in the region
	warps  int64
	warpID int64
	rot    int64
	passes int64

	pass     int64
	off      int64
	lo, hi   int64 // current slot bounds
	perRound int64 // total items this warp touches across all passes
}

func newRotor(n, warps, warpID, rot, passes int64) rotor {
	if passes < 1 {
		passes = 1
	}
	if rot < 1 {
		rot = 1
	}
	r := rotor{n: n, warps: warps, warpID: warpID, rot: rot, passes: passes}
	for p := int64(0); p < passes; p++ {
		lo, hi := splitRange(n, warps, r.slot(p))
		r.perRound += hi - lo
	}
	r.lo, r.hi = splitRange(n, warps, r.slot(0))
	return r
}

func (r *rotor) slot(pass int64) int64 { return (r.warpID + pass*r.rot) % r.warps }

// skipEmpty advances past empty slots; callers must only invoke it while
// the rotor has items remaining overall (perRound > 0).
func (r *rotor) skipEmpty() {
	for r.hi <= r.lo {
		r.advancePass()
	}
}

// item returns the current item index without advancing.
func (r *rotor) item() int64 {
	r.skipEmpty()
	return r.lo + r.off
}

// next advances to the following item; wrapped reports that the walk
// finished its last pass and started over.
func (r *rotor) next() (wrapped bool) {
	r.skipEmpty()
	r.off++
	if r.off >= r.hi-r.lo {
		r.off = 0
		wrapped = r.advancePass()
	}
	return wrapped
}

func (r *rotor) advancePass() (wrapped bool) {
	r.pass++
	if r.pass >= r.passes {
		r.pass = 0
		wrapped = true
	}
	r.lo, r.hi = splitRange(r.n, r.warps, r.slot(r.pass))
	return wrapped
}

// falseWalker walks the chip's quarter of every page of the false region:
// chip k owns lines [k*q, (k+1)*q) of each page. The chip's warps cover the
// page sequence in rotated slots (see rotor), so each page quarter is
// re-read by PassesFalse different SMs of the chip — falsely-shared lines
// with intra-chip LLC-level reuse.
type falseWalker struct {
	layout Layout
	chip   int64
	q      int64 // lines per page per chip
	pages  int64 // total pages in the region
	rot    rotor // rotated slots over the pages of one window
	win    int64
	wins   int64
	inPage int64 // line offset within the current page's quarter
	total  int64
	pos    int64
}

func newFalseWalker(l Layout, m Machine, chip, warpInChip int, reuse, passes int) *falseWalker {
	if l.FalseLines <= 0 {
		return nil
	}
	_ = reuse // inner line reuse is L1-absorbed; rotation supplies LLC reuse
	lpp := int64(l.Geom.LinesPerPage())
	pages := int64(l.FalseLines) / lpp
	if pages == 0 {
		return nil
	}
	winPages := int64(l.FalseWindowPages)
	if winPages <= 0 || winPages > pages {
		winPages = pages
	}
	w := &falseWalker{
		layout: l,
		chip:   int64(chip),
		q:      lpp / int64(m.Chips),
		pages:  pages,
		rot: newRotor(winPages, int64(m.WarpsPerChip()), int64(warpInChip),
			int64(m.WarpsPerSM), int64(passes)),
		wins: (pages + winPages - 1) / winPages,
	}
	w.total = w.rot.perRound * w.q * w.wins
	if w.total == 0 {
		return nil
	}
	return w
}

func (w *falseWalker) remaining() int64 { return w.total - w.pos }

func (w *falseWalker) next() uint64 {
	winPages := int64(w.layout.FalseWindowPages)
	if winPages <= 0 || winPages > w.pages {
		winPages = w.pages
	}
	page := (w.win*winPages + w.rot.item()) % w.pages
	lpp := int64(w.layout.Geom.LinesPerPage())
	line := int64(w.layout.FalseBase) + page*lpp + w.chip*w.q + w.inPage
	w.inPage++
	if w.inPage >= w.q {
		w.inPage = 0
		if w.rot.next() {
			w.win++
		}
	}
	w.pos++
	return uint64(line)
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
	layout Layout
	slots  int64 // concurrent-sharer groups (warpsPerChip / SharersTrue)
	slot0  int64 // this warp's group
	rot    int64 // slot stride between passes (jumps to another SM's group)
	reuse  int64 // long-range passes per window

	win  int64
	wins int64
	pass int64
	off  int64
	lo   int64
	hi   int64

	perWin int64
	total  int64
	pos    int64
}

func newTrueWalker(l Layout, m Machine, warpInChip int, reuse, sharers int) *trueWalker {
	if l.TrueLines <= 0 {
		return nil
	}
	if reuse < 1 {
		reuse = 1
	}
	if sharers < 1 {
		sharers = 1
	}
	wlines := int64(l.WindowLines)
	wins := (int64(l.TrueLines) + wlines - 1) / wlines
	slots := int64(m.WarpsPerChip()) / int64(sharers)
	if slots < 1 {
		slots = 1
	}
	rot := int64(m.WarpsPerSM) % slots
	if rot == 0 {
		rot = 1
	}
	t := &trueWalker{
		layout: l,
		slots:  slots,
		slot0:  int64(warpInChip) % slots,
		rot:    rot,
		reuse:  int64(reuse),
		wins:   wins,
	}
	for p := int64(0); p < t.reuse; p++ {
		lo, hi := splitRange(wlines, t.slots, t.slot(p))
		t.perWin += hi - lo
	}
	t.total = t.perWin * wins
	if t.total == 0 {
		return nil
	}
	t.lo, t.hi = splitRange(wlines, t.slots, t.slot(0))
	return t
}

// slot returns the window slice this warp's group covers in pass p; slices
// rotate between passes by a warps-per-SM stride so long-range revisits
// come from other SMs (same-SM revisits would be absorbed by the L1).
func (w *trueWalker) slot(pass int64) int64 { return (w.slot0 + pass*w.rot) % w.slots }

func (w *trueWalker) remaining() int64 { return w.total - w.pos }

func (w *trueWalker) next() uint64 {
	for w.hi <= w.lo {
		w.advance()
	}
	line := (w.win*int64(w.layout.WindowLines) + w.lo + w.off) % int64(w.layout.TrueLines)
	w.off++
	if w.off >= w.hi-w.lo {
		w.off = 0
		w.advance()
	}
	w.pos++
	return w.layout.TrueBase + uint64(line)
}

func (w *trueWalker) advance() {
	w.pass++
	if w.pass >= w.reuse {
		w.pass = 0
		w.win++
	}
	w.lo, w.hi = splitRange(int64(w.layout.WindowLines), w.slots, w.slot(w.pass))
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
	k := s.KernelAt(ki)
	l := s.LayoutFor(ki, m)
	warpInChip := sm*m.WarpsPerSM + warp

	st := &Stream{
		salt:  addr.Mix64(uint64(chip)<<40 ^ uint64(sm)<<20 ^ uint64(warp)<<4 ^ uint64(ki)),
		write: uint64(k.WriteFrac * (1 << 16)),
		gap:   max(k.ComputeGap, 0),
	}

	// Private walk: chip-block (page aligned), then warp slice.
	if l.PrivLines > 0 {
		chipLines := int64(l.PrivLines) / int64(m.Chips)
		lo, hi := splitRange(chipLines, int64(m.WarpsPerChip()), int64(warpInChip))
		if hi > lo {
			base := l.PrivBase + uint64(int64(chip)*chipLines+lo)
			if bw := newBlockWalker(base, int(hi-lo), k.BlockLines, k.ReusePriv, k.PassesPriv); bw != nil {
				st.addWalk(bw)
			}
		}
	}
	if fw := newFalseWalker(l, m, chip, warpInChip, k.ReuseFalse, k.PassesFalse); fw != nil {
		st.addWalk(fw)
	}
	if tw := newTrueWalker(l, m, warpInChip, k.ReuseTrue, k.SharersTrue); tw != nil {
		st.addWalk(tw)
	}
	for i, w := range st.walks[:st.n] {
		st.share[i] = w.remaining()
		st.total += st.share[i]
	}
	return st
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

func (st *Stream) addWalk(w walker) {
	st.walks[st.n] = w
	st.n++
}
