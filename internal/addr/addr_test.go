package addr

import (
	"testing"
	"testing/quick"

	"repro/internal/memsys"
)

var testGeom = memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4}

func TestPAESliceUniformity(t *testing.T) {
	p := NewPAE(16, 8)
	counts := make([]int, 16)
	const lines = 160000
	for l := uint64(0); l < lines; l++ {
		counts[p.Slice(l)]++
	}
	want := lines / 16
	for s, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("slice %d got %d requests, want ~%d (non-uniform hash)", s, c, want)
		}
	}
}

func TestPAESliceStrideResistance(t *testing.T) {
	// The whole point of PAE: power-of-two strides must still spread.
	p := NewPAE(16, 8)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[p.Slice(uint64(i)*32)]++ // stride of a page
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("slice %d starved under strided access", s)
		}
		if c > 3000 {
			t.Errorf("slice %d hot (%d) under strided access", s, c)
		}
	}
}

func TestPAEChannelPairing(t *testing.T) {
	// Channel must be a deterministic function of slice so the
	// slice-to-memory-controller point-to-point links stay fixed.
	p := NewPAE(16, 8)
	for l := uint64(0); l < 10000; l++ {
		s, c := p.Slice(l), p.Channel(l)
		if want := s * 8 / 16; c != want {
			t.Fatalf("line %d: slice %d channel %d, want %d", l, s, c, want)
		}
		if c < 0 || c >= 8 {
			t.Fatalf("channel %d out of range", c)
		}
	}
}

func TestPAEDeterministic(t *testing.T) {
	a, b := NewPAE(16, 8), NewPAE(16, 8)
	f := func(line uint64) bool {
		return a.Slice(line) == b.Slice(line) && a.Channel(line) == b.Channel(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPAEPanicsOnBadCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPAE(0, 8) did not panic")
		}
	}()
	NewPAE(0, 8)
}

func TestFirstTouchPlacement(t *testing.T) {
	pt := NewPageTable(testGeom, 4)
	// Chip 2 touches line 0 of page 0 first.
	if home := pt.Touch(0, 2); home != 2 {
		t.Fatalf("first touch home = %d, want 2", home)
	}
	// Later touches by other chips do not move the page.
	if home := pt.Touch(1, 0); home != 2 {
		t.Fatalf("second touch home = %d, want 2", home)
	}
	if pt.Home(31) != 2 { // any line of page 0
		t.Fatalf("Home(31) = %d, want 2", pt.Home(31))
	}
	if pt.Home(32) != -1 { // page 1 untouched
		t.Fatalf("Home(32) = %d, want -1", pt.Home(32))
	}
	if pt.Pages() != 1 {
		t.Fatalf("Pages = %d, want 1", pt.Pages())
	}
}

func TestSharingClassification(t *testing.T) {
	pt := NewCensus(testGeom, 4)
	// Page 0: chip 0 touches line 0, chip 1 touches line 1 → both falsely shared.
	pt.Touch(0, 0)
	pt.Touch(1, 1)
	// Page 1 (lines 32..63): only chip 3 → non-shared.
	pt.Touch(32, 3)
	pt.Touch(33, 3)
	// Page 2 (lines 64..95): line 64 touched by chips 0 and 2 → truly shared;
	// line 65 by chip 0 only → falsely shared (chip 2 touched the page).
	pt.Touch(64, 0)
	pt.Touch(64, 2)
	pt.Touch(65, 0)

	cases := []struct {
		line uint64
		want SharingClass
	}{
		{0, FalseShared},
		{1, FalseShared},
		{2, NonShared}, // untouched line of a shared page
		{32, NonShared},
		{33, NonShared},
		{64, TrueShared},
		{65, FalseShared},
		{1000, NonShared}, // untouched page
	}
	for _, c := range cases {
		if got := pt.Classify(c.line); got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.line, got, c.want)
		}
	}
}

func TestFootprintBytes(t *testing.T) {
	pt := NewCensus(testGeom, 4)
	pt.Touch(0, 0)  // false-shared (because of next touch)
	pt.Touch(1, 1)  // false-shared
	pt.Touch(32, 3) // non-shared
	pt.Touch(64, 0)
	pt.Touch(64, 2) // true-shared
	total, ts, fs := pt.FootprintBytes()
	if total != 4*128 {
		t.Errorf("total = %d, want %d", total, 4*128)
	}
	if ts != 128 {
		t.Errorf("trueShared = %d, want 128", ts)
	}
	if fs != 2*128 {
		t.Errorf("falseShared = %d, want 256", fs)
	}
}

func TestNewPageTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPageTable with 9 chips did not panic")
		}
	}()
	NewPageTable(testGeom, 9)
}

// Property: classification is monotone — adding accessors never demotes a
// line from TrueShared.
func TestClassifyMonotoneProperty(t *testing.T) {
	f := func(touches []uint8) bool {
		pt := NewCensus(testGeom, 4)
		seenTrue := map[uint64]bool{}
		for _, tc := range touches {
			line := uint64(tc % 64) // two pages
			chip := int(tc>>6) % 4
			pt.Touch(line, chip)
			for l := range seenTrue {
				if pt.Classify(l) != TrueShared {
					return false
				}
			}
			if pt.Classify(line) == TrueShared {
				seenTrue[line] = true
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSharingClassString(t *testing.T) {
	if NonShared.String() != "non-shared" || FalseShared.String() != "false-shared" ||
		TrueShared.String() != "true-shared" || SharingClass(7).String() != "unknown" {
		t.Error("SharingClass strings wrong")
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}
