package core

import "testing"

func defaultCRD() *CRD {
	return NewCRD(CRDConfig{Sets: 8, Ways: 16, Chips: 4, Sectors: 1, LLCSetsPerChip: 8})
}

func TestCRDFirstAccessMissesSecondHits(t *testing.T) {
	c := defaultCRD()
	if c.Access(42, 0, 0) {
		t.Fatal("first access should not be an SM-side hit")
	}
	if !c.Access(42, 0, 0) {
		t.Fatal("second access by the same chip should be an SM-side hit")
	}
	if c.PredictedHitRate() != 0.5 {
		t.Fatalf("predicted hit rate %v, want 0.5", c.PredictedHitRate())
	}
}

func TestCRDTracksChipsIndependently(t *testing.T) {
	// Replication semantics: chip 1's first access to a line chip 0 already
	// touched is still a miss (chip 1 has no copy yet under SM-side), but its
	// second access hits.
	c := defaultCRD()
	c.Access(42, 0, 0)
	if c.Access(42, 1, 0) {
		t.Fatal("chip 1 first access should miss")
	}
	if !c.Access(42, 1, 0) {
		t.Fatal("chip 1 second access should hit")
	}
	if !c.Access(42, 0, 0) {
		t.Fatal("chip 0 copy lost by chip 1's access")
	}
}

func TestCRDSectored(t *testing.T) {
	c := NewCRD(CRDConfig{Sets: 8, Ways: 16, Chips: 4, Sectors: 4, LLCSetsPerChip: 8})
	c.Access(42, 0, 1)
	if c.Access(42, 0, 2) {
		t.Fatal("different sector should miss")
	}
	if !c.Access(42, 0, 1) {
		t.Fatal("same sector should hit")
	}
}

func TestCRDEvictionUnderPressure(t *testing.T) {
	// 1 set × 2 ways: a third line evicts the LRU one.
	c := NewCRD(CRDConfig{Sets: 1, Ways: 2, Chips: 4, Sectors: 1, LLCSetsPerChip: 1})
	c.Access(1, 0, 0)
	c.Access(2, 0, 0)
	c.Access(1, 0, 0) // 1 is MRU
	c.Access(3, 0, 0) // evicts 2 (the LRU block)
	if !c.Access(1, 0, 0) {
		t.Fatal("MRU line should have survived")
	}
	if c.Access(2, 0, 0) {
		t.Fatal("evicted line should miss on return")
	}
}

func TestCRDSampling(t *testing.T) {
	// Sampling 8 of 1024 sets: roughly 8/1024 of lines observed.
	c := NewCRD(CRDConfig{Sets: 8, Ways: 16, Chips: 4, Sectors: 1, LLCSetsPerChip: 1024})
	sampled := 0
	const lines = 100000
	for l := uint64(0); l < lines; l++ {
		if c.llcSet(l) < c.sets {
			sampled++
		}
	}
	want := lines * 8 / 1024
	if sampled < want/2 || sampled > want*2 {
		t.Fatalf("sampled %d of %d lines, want ~%d", sampled, lines, want)
	}
	// Non-sampled accesses must not count.
	c.Reset()
	for l := uint64(0); l < 1000; l++ {
		c.Access(l, 0, 0)
	}
	if c.Requests >= 1000 {
		t.Fatalf("CRD counted %d requests, sampling broken", c.Requests)
	}
}

func TestCRDReset(t *testing.T) {
	c := defaultCRD()
	c.Access(42, 0, 0)
	c.Access(42, 0, 0)
	c.Reset()
	if c.Requests != 0 || c.HitsN != 0 || c.PredictedHitRate() != 0 {
		t.Fatal("Reset incomplete")
	}
	if c.Access(42, 0, 0) {
		t.Fatal("contents survived Reset")
	}
}

// TestCRDResetIsCold: a profiling window after Reset starts from the CRD
// NewCRD returns. Reset zeroes each way's LRU stamp with its tag; a stale
// stamp would keep the install scan, which takes way 0 as its first victim
// candidate, from refilling way 0 until the new window's ticks pass it, so a
// 4-way set re-touching 4 lines would keep none of them after a Reset.
func TestCRDResetIsCold(t *testing.T) {
	c := NewCRD(CRDConfig{Sets: 1, Ways: 4, Chips: 1, Sectors: 1, LLCSetsPerChip: 1})
	// window touches lines 1..4 twice and counts the second round's hits.
	window := func() (kept int) {
		for round := 0; round < 2; round++ {
			for line := uint64(1); line <= 4; line++ {
				if c.Access(line, 0, 0) && round == 1 {
					kept++
				}
			}
		}
		return kept
	}
	if kept := window(); kept != 4 {
		t.Fatalf("fresh CRD kept %d of 4 lines, want 4", kept)
	}
	c.Reset()
	if kept := window(); kept != 4 {
		t.Fatalf("CRD after Reset kept %d of 4 lines, want 4", kept)
	}
}

func TestHardwareBudgetMatchesPaper(t *testing.T) {
	// §3.6: conventional caches — 544 B CRD, 64 B LSU counters, 12 B scalar
	// counters, 620 B total per chip.
	b := HardwareBudget(8, 16, 30, 4, 1, 16)
	if b.CRDBytes != 544 {
		t.Errorf("conventional CRD = %d B, paper says 544", b.CRDBytes)
	}
	if b.LSUBytes != 64 {
		t.Errorf("LSU counters = %d B, paper says 64", b.LSUBytes)
	}
	if b.ScalarBytes != 12 {
		t.Errorf("scalar counters = %d B, paper says 12", b.ScalarBytes)
	}
	if b.TotalBytes != 620 {
		t.Errorf("total = %d B, paper says 620", b.TotalBytes)
	}
	// Sectored caches — 736 B CRD, 812 B total per chip.
	bs := HardwareBudget(8, 16, 30, 4, 4, 16)
	if bs.CRDBytes != 736 {
		t.Errorf("sectored CRD = %d B, paper says 736", bs.CRDBytes)
	}
	if bs.TotalBytes != 812 {
		t.Errorf("sectored total = %d B, paper says 812", bs.TotalBytes)
	}
}

func TestNewCRDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid CRD config did not panic")
		}
	}()
	NewCRD(CRDConfig{Sets: 0, Ways: 1, Chips: 1})
}
