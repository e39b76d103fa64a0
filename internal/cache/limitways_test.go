package cache

import "testing"

// fillSet installs n distinct lines that all map to the same set by probing
// line numbers until n of them share base's set. Returns the lines.
func fillSameSet(t *testing.T, c *Cache, n int) []uint64 {
	t.Helper()
	base := uint64(1)
	idx, _ := c.locate(base)
	lines := []uint64{base}
	for cand := base + 1; len(lines) < n; cand++ {
		if set, _ := c.locate(cand); set == idx {
			lines = append(lines, cand)
		}
	}
	for _, ln := range lines {
		c.Fill(ln, 0, PartAll, false)
	}
	return lines
}

func TestLimitWaysDropsDisabledWays(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 4, LineBytes: 128, WriteBack: true})
	lines := fillSameSet(t, c, 4)
	c.MarkDirty(lines[3]) // resident in way 3 — about to be disabled

	var dirty []uint64
	dropped := c.LimitWays(2, func(line uint64, remote bool) { dirty = append(dirty, line) })
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(dirty) != 1 || dirty[0] != lines[3] {
		t.Fatalf("dirty writebacks = %v, want [%d]", dirty, lines[3])
	}
	// Survivors hit; dropped lines miss.
	for i, ln := range lines {
		want := i < 2
		if got := c.Probe(ln, 0); got != want {
			t.Fatalf("Probe(line %d in way %d) = %v, want %v", ln, i, got, want)
		}
	}
	// New fills stay inside the usable range: filling two more lines into the
	// same set must evict the two survivors, never resurrect ways 2-3.
	extra := fillSameSet(t, c, 4)[2:]
	for _, ln := range extra {
		if !c.Probe(ln, 0) {
			t.Fatalf("line %d not installed in usable ways", ln)
		}
	}
	if loc, rem := c.Occupancy(); loc+rem != 2 {
		t.Fatalf("occupancy = %d lines, want 2 (half the set disabled)", loc+rem)
	}
}

func TestLimitWaysZeroKillsSlice(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 2, LineBytes: 128, WriteBack: true})
	c.Fill(1, 0, PartAll, false)
	c.LimitWays(0, nil)
	if c.Probe(1, 0) {
		t.Fatal("line survived a full slice disable")
	}
	// Fills are served but install nothing; no panic, no eviction.
	if _, ev, _ := c.Fill(2, 0, PartAll, false); ev {
		t.Fatal("dead slice reported an eviction")
	}
	if c.Probe(2, 0) {
		t.Fatal("dead slice retained a fill")
	}
	// Healing restores capacity (cold).
	c.LimitWays(c.Cfg().Ways, nil)
	c.Fill(3, 0, PartAll, false)
	if !c.Probe(3, 0) {
		t.Fatal("healed slice did not retain a fill")
	}
}

func TestLimitWaysRespectsPartition(t *testing.T) {
	// 4 ways split 2 local / 2 remote; disabling down to 3 usable ways must
	// clip only the remote range (ways 2-3 → way 2).
	c := New(Config{Sets: 1, Ways: 4, LineBytes: 128, WriteBack: true})
	c.SetPartition(2)
	c.LimitWays(3, nil)
	c.Fill(10, 0, PartRemote, true)
	c.Fill(11, 0, PartRemote, true) // must evict line 10, not use way 3
	if c.Probe(10, 0) {
		t.Fatal("remote range not clipped: both remote lines resident")
	}
	if !c.Probe(11, 0) {
		t.Fatal("remote fill lost")
	}
	// Local range untouched.
	c.Fill(20, 0, PartLocal, false)
	c.Fill(21, 0, PartLocal, false)
	if !c.Probe(20, 0) || !c.Probe(21, 0) {
		t.Fatal("local ways affected by disabling a remote way")
	}
}
