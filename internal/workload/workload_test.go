package workload

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/memsys"
)

var testMachine = Machine{
	Chips:      4,
	SMsPerChip: 4,
	WarpsPerSM: 4,
	Geom:       memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4},
	Scale:      64,
}

func tinySpec() Spec {
	return Spec{
		Name: "tiny", CTAs: 64, Repeats: 1,
		Kernels: []Kernel{{
			Name:      "k0",
			PrivateMB: 16, FalseMB: 8, TrueMB: 8,
			BlockLines: 8, ReusePriv: 2, ReuseFalse: 2, ReuseTrue: 2,
			PassesPriv: 1, PassesFalse: 1,
			TrueWindowMB: 2, WriteFrac: 0.2, ComputeGap: 2,
		}},
	}
}

func TestMachineValidate(t *testing.T) {
	if err := testMachine.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := testMachine
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
	bad = testMachine
	bad.Chips = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero chips accepted")
	}
	if testMachine.WarpsPerChip() != 16 || testMachine.TotalWarps() != 64 {
		t.Fatal("warp counts wrong")
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	s := tinySpec()
	l := s.LayoutFor(0, testMachine)
	if l.PrivLines <= 0 || l.FalseLines <= 0 || l.TrueLines <= 0 {
		t.Fatalf("degenerate layout %+v", l)
	}
	if l.PrivBase+uint64(l.PrivLines) > l.FalseBase {
		t.Fatal("private overlaps false region")
	}
	if l.FalseBase+uint64(l.FalseLines) > l.TrueBase {
		t.Fatal("false overlaps true region")
	}
	if l.WindowLines <= 0 || l.WindowLines > l.TrueLines {
		t.Fatalf("bad window %d for %d true lines", l.WindowLines, l.TrueLines)
	}
	lpp := testMachine.Geom.LinesPerPage()
	if l.PrivLines%(lpp*testMachine.Chips) != 0 {
		t.Fatal("private region not chip-page aligned")
	}
	if l.FalseLines%lpp != 0 {
		t.Fatal("false region not page aligned")
	}
}

func TestStreamDeterministic(t *testing.T) {
	s := tinySpec()
	a := s.NewStream(testMachine, 0, 1, 2, 3)
	b := s.NewStream(testMachine, 0, 1, 2, 3)
	if a.Len() == 0 || a.Len() != b.Len() {
		t.Fatalf("lengths %d vs %d", a.Len(), b.Len())
	}
	for {
		x, okA := a.Next()
		y, okB := b.Next()
		if okA != okB {
			t.Fatal("streams diverge in length")
		}
		if !okA {
			break
		}
		if x != y {
			t.Fatalf("streams diverge: %+v vs %+v", x, y)
		}
	}
}

func TestStreamEndsAtLen(t *testing.T) {
	s := tinySpec()
	st := s.NewStream(testMachine, 0, 0, 0, 0)
	n := int64(0)
	for {
		_, ok := st.Next()
		if !ok {
			break
		}
		n++
		if n > st.Len()+1 {
			t.Fatal("stream exceeds declared length")
		}
	}
	if n != st.Len() {
		t.Fatalf("emitted %d, declared %d", n, st.Len())
	}
}

// TestNewStreamAllocations pins per-warp stream set-up, which every cell of
// every rung pays once per warp per kernel: the Stream record, whose region
// walks it holds by value, and nothing else.
func TestNewStreamAllocations(t *testing.T) {
	s := tinySpec()
	for kind, left := range s.NewStream(testMachine, 0, 1, 2, 3).left {
		if left <= 0 {
			t.Fatalf("tiny spec builds no walk of kind %d, want all 3", kind)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.NewStream(testMachine, 0, 1, 2, 3) }); n > 1 {
		t.Fatalf("NewStream allocates %v times, want <= 1", n)
	}
}

// TestAppendStreamsMatchesNewStream pins AppendStreams to NewStream warp by
// warp — same order, same accesses — over storage reused from an earlier
// kernel, and pins that it allocates nothing when the slice has room.
func TestAppendStreamsMatchesNewStream(t *testing.T) {
	s := tinySpec()
	s.Kernels = append(s.Kernels, s.Kernels[0])
	s.Kernels[1].Name, s.Kernels[1].TrueMB, s.Kernels[1].FalseMB = "k1", 0, 2
	m := testMachine
	buf := s.AppendStreams(nil, m, 0)
	if len(buf) != m.TotalWarps() {
		t.Fatalf("AppendStreams built %d streams, want %d", len(buf), m.TotalWarps())
	}
	for ki := 1; ki >= 0; ki-- { // kernel 1 over kernel 0's streams, then back
		buf = s.AppendStreams(buf[:0], m, ki)
		i := 0
		for chip := 0; chip < m.Chips; chip++ {
			for sm := 0; sm < m.SMsPerChip; sm++ {
				for warp := 0; warp < m.WarpsPerSM; warp++ {
					got, want := &buf[i], s.NewStream(m, ki, chip, sm, warp)
					i++
					if got.Len() != want.Len() {
						t.Fatalf("kernel %d warp %d/%d/%d: Len %d, want %d", ki, chip, sm, warp, got.Len(), want.Len())
					}
					for {
						a, okA := got.Next()
						b, okB := want.Next()
						if a != b || okA != okB {
							t.Fatalf("kernel %d warp %d/%d/%d: %+v %v, want %+v %v", ki, chip, sm, warp, a, okA, b, okB)
						}
						if !okA {
							break
						}
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { buf = s.AppendStreams(buf[:0], m, 0) }); n != 0 {
		t.Fatalf("AppendStreams into a pre-sized slice allocates %v times, want 0", n)
	}
}

// drive runs every warp's stream through a sharing census, recording which
// chips touch which lines. Warps are interleaved round-robin to mimic
// concurrent execution.
func drive(t *testing.T, s Spec, m Machine, ki int) *addr.Census {
	t.Helper()
	pt := addr.NewCensus(m.Geom, m.Chips)
	streams := s.AppendStreams(nil, m, ki) // chip-major: warp i is on chip i/WarpsPerChip
	live := len(streams)
	for live > 0 {
		live = 0
		for i := range streams {
			a, ok := streams[i].Next()
			if !ok {
				continue
			}
			live++
			pt.Touch(a.Line, i/m.WarpsPerChip())
		}
	}
	return pt
}

func TestSharingStructure(t *testing.T) {
	s := tinySpec()
	m := testMachine
	pt := drive(t, s, m, 0)
	l := s.LayoutFor(0, m)

	// Private lines must be non-shared.
	for i := 0; i < l.PrivLines; i += 7 {
		if cl := pt.Classify(l.PrivBase + uint64(i)); cl != addr.NonShared {
			t.Fatalf("private line %d classified %v", i, cl)
		}
	}
	// Touched false lines must be falsely shared.
	falseSeen := 0
	for i := 0; i < l.FalseLines; i++ {
		cl := pt.Classify(l.FalseBase + uint64(i))
		if cl == addr.TrueShared {
			t.Fatalf("false-region line %d classified true-shared", i)
		}
		if cl == addr.FalseShared {
			falseSeen++
		}
	}
	if falseSeen < l.FalseLines*8/10 {
		t.Fatalf("only %d/%d false lines falsely shared", falseSeen, l.FalseLines)
	}
	// Touched true lines must be truly shared.
	trueSeen := 0
	for i := 0; i < l.TrueLines; i++ {
		if pt.Classify(l.TrueBase+uint64(i)) == addr.TrueShared {
			trueSeen++
		}
	}
	if trueSeen < l.TrueLines*8/10 {
		t.Fatalf("only %d/%d true lines truly shared", trueSeen, l.TrueLines)
	}
}

func TestFootprintMatchesSpec(t *testing.T) {
	s := tinySpec()
	pt := drive(t, s, testMachine, 0)
	total, ts, fs := pt.FootprintBytes()
	k := s.Kernels[0]
	mb := func(b int64) float64 { return float64(b) / (1 << 20) * float64(testMachine.Scale) }
	wantTotal := k.PrivateMB + k.FalseMB + k.TrueMB
	if got := mb(total); got < wantTotal*0.8 || got > wantTotal*1.25 {
		t.Errorf("footprint %.1f MB, want ~%.1f", got, wantTotal)
	}
	if got := mb(ts); got < k.TrueMB*0.8 || got > k.TrueMB*1.25 {
		t.Errorf("true-shared %.1f MB, want ~%.1f", got, k.TrueMB)
	}
	if got := mb(fs); got < k.FalseMB*0.8 || got > k.FalseMB*1.25 {
		t.Errorf("false-shared %.1f MB, want ~%.1f", got, k.FalseMB)
	}
}

func TestWriteFraction(t *testing.T) {
	s := tinySpec()
	st := s.NewStream(testMachine, 0, 0, 0, 0)
	writes, total := 0, 0
	for {
		a, ok := st.Next()
		if !ok {
			break
		}
		total++
		if a.Kind == memsys.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(total)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("write fraction %.3f, want ~0.2", frac)
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d entries, want 16", len(cat))
	}
	t4 := Table4()
	sp := 0
	for i, s := range cat {
		if s.Name != t4[i].Name {
			t.Errorf("catalog[%d] = %s, Table4 = %s", i, s.Name, t4[i].Name)
		}
		if s.CTAs != t4[i].CTAs {
			t.Errorf("%s CTAs %d, want %d", s.Name, s.CTAs, t4[i].CTAs)
		}
		if s.SMSide {
			sp++
		}
		if len(s.Kernels) == 0 || s.Repeats < 1 {
			t.Errorf("%s has no kernels or repeats", s.Name)
		}
		// Region sizes must reproduce Table 4: max across kernels.
		var maxP, maxF, maxT float64
		for _, k := range s.Kernels {
			maxP = max(maxP, k.PrivateMB)
			maxF = max(maxF, k.FalseMB)
			maxT = max(maxT, k.TrueMB)
		}
		if tot := maxP + maxF + maxT; tot < t4[i].FootprintMB*0.9 || tot > t4[i].FootprintMB*1.1 {
			t.Errorf("%s footprint %.1f, Table 4 says %.1f", s.Name, tot, t4[i].FootprintMB)
		}
		if maxT < t4[i].TrueMB*0.9 || maxT > t4[i].TrueMB*1.1 {
			t.Errorf("%s true %.1f, Table 4 says %.1f", s.Name, maxT, t4[i].TrueMB)
		}
		if maxF < t4[i].FalseMB*0.9 || maxF > t4[i].FalseMB*1.1 {
			t.Errorf("%s false %.1f, Table 4 says %.1f", s.Name, maxF, t4[i].FalseMB)
		}
	}
	if sp != 8 {
		t.Fatalf("%d SP benchmarks, want 8", sp)
	}
}

func TestByNameAndNames(t *testing.T) {
	s, err := ByName("GEMM")
	if err != nil || s.Name != "GEMM" || s.SMSide {
		t.Fatalf("ByName(GEMM) = %+v, %v", s, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if n := Names(); len(n) != 16 || n[0] != "RN" || n[15] != "NN" {
		t.Fatalf("Names = %v", n)
	}
}

// TestByNameReturnsOwnKernels pins that ByName hands out copies: a caller
// writing the kernels of one lookup must not change the shared catalog, so
// the next lookup of the same name still matches Catalog.
func TestByNameReturnsOwnKernels(t *testing.T) {
	for _, name := range []string{"RN", "BFS"} {
		first, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := first.Kernels[0]
		first.Kernels[0].TrueMB = -1
		first.Kernels[0].Name = "mutated"
		first.Kernels = append(first.Kernels[:1], Kernel{Name: "appended"})
		second, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if second.Kernels[0] != want {
			t.Fatalf("%s: kernel 0 after a caller's write = %+v, want %+v", name, second.Kernels[0], want)
		}
		for _, s := range Catalog() {
			if s.Name == name && !reflect.DeepEqual(s, second) {
				t.Fatalf("%s: ByName = %+v, Catalog has %+v", name, second, s)
			}
		}
	}
}

func TestScaleInput(t *testing.T) {
	s, _ := ByName("RN")
	half := s.ScaleInput(0.5)
	if half.Kernels[0].TrueMB != s.Kernels[0].TrueMB/2 {
		t.Fatal("TrueMB not scaled")
	}
	if half.Kernels[0].TrueWindowMB != s.Kernels[0].TrueWindowMB/2 {
		t.Fatal("window not scaled")
	}
	if half.Name == s.Name {
		t.Fatal("scaled spec should be renamed")
	}
	same := s.ScaleInput(1)
	if same.Name != s.Name {
		t.Fatal("unit scale should keep the name")
	}
}

func TestKernelSequence(t *testing.T) {
	bfs, _ := ByName("BFS")
	if bfs.KernelCount() != 4 {
		t.Fatalf("BFS kernel count %d, want 4 (2 kernels x 2 repeats)", bfs.KernelCount())
	}
	if bfs.KernelAt(0).Name != "bfs-k1" || bfs.KernelAt(1).Name != "bfs-k2" ||
		bfs.KernelAt(2).Name != "bfs-k1" {
		t.Fatal("kernel alternation wrong")
	}
}

func TestTrueWindowSynchronizedAcrossChips(t *testing.T) {
	// Early accesses to the true region from different chips must overlap in
	// the same window — that is what creates replication-friendly sharing.
	s := tinySpec()
	m := testMachine
	l := s.LayoutFor(0, m)
	inWindow := func(line uint64) bool {
		return line >= l.TrueBase && line < l.TrueBase+uint64(l.WindowLines)
	}
	for chip := 0; chip < m.Chips; chip++ {
		st := s.NewStream(m, 0, chip, 0, 0)
		seen := 0
		for i := 0; i < 200; i++ {
			a, ok := st.Next()
			if !ok {
				break
			}
			if inWindow(a.Line) {
				seen++
			}
		}
		if seen == 0 {
			t.Fatalf("chip %d never touched window 0 early", chip)
		}
	}
}

func TestBlockWalkerCoverage(t *testing.T) {
	var w blockWalker
	w.init(100, 10, 4, 2, 1)
	seen := map[uint64]int{}
	for i := w.total; i > 0; i-- {
		seen[w.next()]++
	}
	for l := uint64(100); l < 110; l++ {
		if seen[l] == 0 {
			t.Fatalf("line %d never visited: %v", l, seen)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("visited %d distinct lines, want 10", len(seen))
	}
}

// TestBlockWalkerMatchesPositionFormula holds the incremental walk to the
// closed form it replaced — access pos lands on line (pos mod lines*reuse)
// / (block*reuse) * block + pos mod (block*reuse) mod block, mirrored back
// inside a short tail block — over block sizes that do and do not divide
// the share.
func TestBlockWalkerMatchesPositionFormula(t *testing.T) {
	for lines := 1; lines <= 13; lines++ {
		for block := 0; block <= lines+1; block++ {
			for reuse := 1; reuse <= 3; reuse++ {
				var w blockWalker
				w.init(1000, lines, block, reuse, 2)
				l, b, r := int64(lines), w.block, int64(reuse)
				for pos := int64(0); pos < w.total; pos++ {
					inPass := pos % (l * r)
					line := inPass/(b*r)*b + inPass%(b*r)%b
					if line >= l {
						line = l - 1 - (line - l)
					}
					if got := w.next(); got != 1000+uint64(line) {
						t.Fatalf("lines %d block %d reuse %d: access %d at line %d, want %d", lines, block, reuse, pos, got-1000, line)
					}
				}
			}
		}
	}
}

func TestStreamGapJitterNonNegative(t *testing.T) {
	s := tinySpec()
	st := s.NewStream(testMachine, 0, 0, 1, 1)
	for i := 0; i < 1000; i++ {
		a, ok := st.Next()
		if !ok {
			break
		}
		if a.Gap < 0 {
			t.Fatalf("negative gap %d", a.Gap)
		}
	}
}

func TestRotorRotatesAcrossSMs(t *testing.T) {
	// 16 warps (4 SMs x 4 warps), rot = warpsPerSM = 4: consecutive passes of
	// the same slot must belong to warps of different SMs. One item per slot,
	// so a pass's item is its slot.
	var r rotor
	r.init(16, 16, 3, 4, 4)
	slots := map[int64]bool{}
	prev := int64(-1)
	for p := 0; p < 4; p++ {
		slot := r.item()
		if slots[slot] {
			t.Fatalf("slot %d repeated within the rotation", slot)
		}
		slots[slot] = true
		// Slot s is warp s's in pass 0, and warp s sits on SM s/4: the SM
		// owning pass p's slot differs from pass p-1's.
		if p > 0 && slot/4 == prev/4 {
			t.Fatalf("passes %d and %d land in the same SM", p-1, p)
		}
		prev = slot
		r.next()
	}
}

// TestSliceWalkMatchesSplitRange holds the division-free slot walk to
// splitRange at every step, across slot counts that do and do not divide
// the region, regions smaller than the slot count (empty slots), and every
// start slot and stride the walkers use.
func TestSliceWalkMatchesSplitRange(t *testing.T) {
	for n := int64(0); n <= 20; n++ {
		for parts := int64(1); parts <= 9; parts++ {
			for slot0 := int64(0); slot0 < parts; slot0++ {
				for rot := int64(0); rot <= parts; rot++ {
					var s sliceWalk
					s.init(n, parts, slot0, rot)
					for pass := int64(0); pass < 2*parts+1; pass++ {
						if pass == parts+1 {
							s.first()
						}
						p := pass
						if pass > parts {
							p -= parts + 1
						}
						lo, hi := splitRange(n, parts, (slot0+p*rot)%parts)
						if s.lo != lo || s.hi != hi {
							t.Fatalf("n %d parts %d slot0 %d rot %d pass %d: [%d,%d), want [%d,%d)",
								n, parts, slot0, rot, p, s.lo, s.hi, lo, hi)
						}
						s.step()
					}
				}
			}
		}
	}
}

func TestRotorCoverage(t *testing.T) {
	// Collectively, all warps cover every item in every pass.
	const n, warps, passes = 50, 8, 3
	counts := make([]int, n)
	for w := int64(0); w < warps; w++ {
		var r rotor
		r.init(n, warps, w, 2, passes)
		for i := r.perRound; i > 0; i-- {
			counts[r.item()]++
			r.next()
		}
	}
	for i, c := range counts {
		if c != passes {
			t.Fatalf("item %d visited %d times, want %d", i, c, passes)
		}
	}
}

func TestRotorWrapSignal(t *testing.T) {
	var r rotor
	r.init(8, 2, 0, 1, 2)
	wraps := 0
	for i := int64(0); i < r.perRound*3; i++ {
		if r.next() {
			wraps++
		}
	}
	if wraps != 3 {
		t.Fatalf("wraps = %d, want 3 (one per full round)", wraps)
	}
}

func TestFalseWindowLimitsConcurrentPages(t *testing.T) {
	// With a false window of 1 page-window, early accesses must stay within
	// the first window's pages.
	s := tinySpec()
	s.Kernels[0].FalseWindowMB = 0.5 // at scale 64: tiny window
	m := testMachine
	l := s.LayoutFor(0, m)
	if l.FalseWindowPages <= 0 || l.FalseWindowPages >= l.FalseLines/m.Geom.LinesPerPage() {
		t.Fatalf("window pages = %d of %d total", l.FalseWindowPages, l.FalseLines/m.Geom.LinesPerPage())
	}
	lpp := uint64(m.Geom.LinesPerPage())
	limit := l.FalseBase + uint64(l.FalseWindowPages)*lpp
	st := s.NewStream(m, 0, 1, 0, 0)
	seen := 0
	for i := 0; i < 64 && seen < 8; i++ {
		a, ok := st.Next()
		if !ok {
			break
		}
		if a.Line >= l.FalseBase && a.Line < l.FalseBase+uint64(l.FalseLines) {
			seen++
			if a.Line >= limit {
				t.Fatalf("early false access outside window 0: line %d >= %d", a.Line, limit)
			}
		}
	}
}

func TestWalkersNilOnEmptyRegions(t *testing.T) {
	l := Layout{Geom: testMachine.Geom}
	m := testMachine
	var fw falseWalker
	if fw.init(&l, &m, 0, 0, 1) {
		t.Fatal("empty false region produced a walker")
	}
	var tw trueWalker
	if tw.init(&l, &m, 0, 1, 1) {
		t.Fatal("empty true region produced a walker")
	}
	var bw blockWalker
	if bw.init(0, 0, 4, 1, 1) {
		t.Fatal("empty block region produced a walker")
	}
}

func TestStreamsCoverAllRegionsCollectively(t *testing.T) {
	// Every line of every region is touched by the full machine.
	s := tinySpec()
	m := testMachine
	pt := drive(t, s, m, 0)
	l := s.LayoutFor(0, m)
	total, _, _ := pt.FootprintBytes()
	wantLines := int64(l.PrivLines + l.FalseLines + l.TrueLines)
	gotLines := total / int64(m.Geom.LineBytes)
	if gotLines < wantLines*95/100 {
		t.Fatalf("covered %d of %d lines", gotLines, wantLines)
	}
}
