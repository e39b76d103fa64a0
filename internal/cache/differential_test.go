package cache

import (
	"math/rand"
	"testing"
)

// checkSame asserts the two implementations agree on counters and census.
func checkSame(t *testing.T, step int, c *aosCache, a *Cache) {
	t.Helper()
	if c.Hits != a.Hits || c.Misses != a.Misses || c.SectorMiss != a.SectorMiss ||
		c.Evictions != a.Evictions || c.Writebacks != a.Writebacks || c.Invalidates != a.Invalidates {
		t.Fatalf("step %d: counters diverged\noracle: H%d M%d SM%d E%d W%d I%d\narray: H%d M%d SM%d E%d W%d I%d",
			step,
			c.Hits, c.Misses, c.SectorMiss, c.Evictions, c.Writebacks, c.Invalidates,
			a.Hits, a.Misses, a.SectorMiss, a.Evictions, a.Writebacks, a.Invalidates)
	}
	cl, cr := c.Occupancy()
	al, ar := a.Occupancy()
	if cl != al || cr != ar {
		t.Fatalf("step %d: occupancy diverged: oracle (%d,%d) array (%d,%d)", step, cl, cr, al, ar)
	}
	if c.DirtyLines() != a.DirtyLines() {
		t.Fatalf("step %d: dirty lines diverged: oracle %d array %d", step, c.DirtyLines(), a.DirtyLines())
	}
	if err := a.CheckRows(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// collidingLines returns n distinct lines that a maps to one set with one
// partial tag — ptag, when some line below the search bound has it — so the
// word compare of that set's row reports several candidates and only the full
// tag tells them apart. ptag 0 also equals every never-filled and padding
// byte of the row.
func collidingLines(t *testing.T, a *Cache, ptag uint64, n int) []uint64 {
	t.Helper()
	var group []uint64
	wantSet := -1
	for cand := uint64(1 << 20); len(group) < n; cand++ {
		if cand > 1<<28 {
			t.Fatalf("no %d lines share a set and partial tag %#x", n, ptag)
		}
		set, p := a.locate(cand)
		if p != ptag || (wantSet >= 0 && set != wantSet) {
			continue
		}
		wantSet = set
		group = append(group, cand)
	}
	return group
}

// TestArrayMatchesCache drives the array-of-structs oracle and Cache through
// identical random operation streams and asserts bit-identical observable behaviour:
// every return value, every counter, the occupancy census, and the dirty
// population. The stream covers lookups, probes, fills in all partitions,
// accesses (a lookup that fills on a miss), dirty marking, invalidation, and
// all three flush variants.
// A quarter of the accesses go to two groups of lines that share one set and
// one partial tag each (one of them tag 0, the value of a never-filled way),
// more lines per group than the set has ways, so the partial-tag row is
// probed with several equal bytes in it — valid, invalidated, never filled
// and, at way counts that do not fill their last word, padding.
func TestArrayMatchesCache(t *testing.T) {
	configs := []Config{
		{Sets: 16, Ways: 4, LineBytes: 128, WriteBack: true},
		{Sets: 8, Ways: 16, LineBytes: 128, Sectors: 4, WriteBack: true},
		{Sets: 32, Ways: 2, LineBytes: 64, WriteBack: false},
		{Sets: 3, Ways: 5, LineBytes: 128, Sectors: 8, WriteBack: true},
		{Sets: 16, Ways: 8, LineBytes: 128}, // the L1 shape: write-through, unsectored
		{Sets: 4, Ways: 12, LineBytes: 128, WriteBack: true},
		{Sets: 2, Ways: 20, LineBytes: 128, Sectors: 2, WriteBack: true},
		{Sets: 2, Ways: MaxWays, LineBytes: 128, WriteBack: true},
	}
	parts := []Partition{PartAll, PartLocal, PartRemote}
	for ci, cfg := range configs {
		c := newAoS(cfg)
		a := New(cfg)
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		lines := uint64(cfg.Lines() * 3) // enough aliasing to force evictions
		_, tagOfOne := a.locate(1)
		colliding := append(collidingLines(t, a, 0, cfg.Ways+2), collidingLines(t, a, tagOfOne, cfg.Ways+2)...)
		sectors := cfg.Sectors
		if sectors <= 0 {
			sectors = 1
		}
		partitioned := false
		for step := 0; step < 20000; step++ {
			line := rng.Uint64() % lines
			if rng.Intn(4) == 0 {
				line = colliding[rng.Intn(len(colliding))]
			}
			sector := rng.Intn(sectors)
			switch op := rng.Intn(100); {
			case op < 35: // counted lookup
				if got, want := a.Lookup(line, sector), c.Lookup(line, sector); got != want {
					t.Fatalf("cfg %d step %d: Lookup(%d,%d) = %v, oracle says %v", ci, step, line, sector, got, want)
				}
			case op < 45: // split lookup (FindLine + SectorValid + CommitLookup)
				want := c.Lookup(line, sector)
				wi := a.FindLine(line)
				if wi >= 0 && sectors > 1 {
					_ = a.SectorValid(wi, sector) // exercised; Commit recounts
				}
				if got := a.CommitLookup(wi, sector); got != want {
					t.Fatalf("cfg %d step %d: CommitLookup(%d,%d) = %v, oracle says %v", ci, step, line, sector, got, want)
				}
			case op < 55: // probe
				if got, want := a.Probe(line, sector), c.Probe(line, sector); got != want {
					t.Fatalf("cfg %d step %d: Probe(%d,%d) = %v, oracle says %v", ci, step, line, sector, got, want)
				}
			case op < 85 && rng.Intn(4) == 0: // access: lookup, fill on a miss
				p := parts[rng.Intn(len(parts))]
				if !partitioned {
					p = PartAll
				}
				remote := rng.Intn(2) == 1
				want := c.Lookup(line, sector)
				if !want {
					c.Fill(line, sector, p, remote)
				}
				if got := a.Access(line, sector, p, remote); got != want {
					t.Fatalf("cfg %d step %d: Access(%d,%d,%v,%v) = %v, oracle says %v", ci, step, line, sector, p, remote, got, want)
				}
			case op < 85: // fill
				p := parts[rng.Intn(len(parts))]
				if !partitioned {
					p = PartAll
				}
				remote := rng.Intn(2) == 1
				v1, e1 := c.Fill(line, sector, p, remote)
				v2, e2, wi := a.Fill(line, sector, p, remote)
				if e1 != e2 || v1 != v2 {
					t.Fatalf("cfg %d step %d: Fill(%d,%d,%v,%v) = (%+v,%v), oracle says (%+v,%v)",
						ci, step, line, sector, p, remote, v2, e2, v1, e1)
				}
				if found := a.FindLine(line); wi != found {
					t.Fatalf("cfg %d step %d: Fill(%d) reports way %d, FindLine finds %d", ci, step, line, wi, found)
				}
			case op < 90: // mark dirty (both paths)
				c.MarkDirty(line)
				if rng.Intn(2) == 0 {
					a.MarkDirty(line)
				} else if wi := a.FindLine(line); wi >= 0 {
					a.MarkDirtyWay(wi)
				}
			case op < 94: // invalidate
				p1, d1 := c.Invalidate(line)
				p2, d2 := a.Invalidate(line)
				if p1 != p2 || d1 != d2 {
					t.Fatalf("cfg %d step %d: Invalidate(%d) = (%v,%v), oracle says (%v,%v)", ci, step, line, p2, d2, p1, d1)
				}
			case op < 96: // repartition
				if cfg.Ways >= 2 && rng.Intn(4) > 0 {
					lw := 1 + rng.Intn(cfg.Ways-1)
					c.SetPartition(lw)
					a.SetPartition(lw)
					partitioned = true
				}
			default: // flush variants
				switch rng.Intn(3) {
				case 0:
					if d1, d2 := c.FlushAll(), a.FlushAll(); d1 != d2 {
						t.Fatalf("cfg %d step %d: FlushAll = %d, oracle says %d", ci, step, d2, d1)
					}
				case 1:
					var got, want []uint64
					d1 := c.FlushAllFunc(func(l uint64, r bool) { want = append(want, l) })
					d2 := a.FlushAllFunc(func(l uint64, r bool) { got = append(got, l) })
					if d1 != d2 || len(got) != len(want) {
						t.Fatalf("cfg %d step %d: FlushAllFunc diverged (%d vs %d)", ci, step, d2, d1)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cfg %d step %d: FlushAllFunc writeback order diverged at %d", ci, step, i)
						}
					}
				default:
					var got, want []uint64
					d1 := c.FlushDirty(func(l uint64, r bool) { want = append(want, l) })
					d2 := a.FlushDirty(func(l uint64, r bool) { got = append(got, l) })
					if d1 != d2 || len(got) != len(want) {
						t.Fatalf("cfg %d step %d: FlushDirty diverged (%d vs %d)", ci, step, d2, d1)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cfg %d step %d: FlushDirty writeback order diverged at %d", ci, step, i)
						}
					}
				}
			}
			if step%1000 == 0 || step == 19999 {
				checkSame(t, step, c, a)
			}
		}
		checkSame(t, -1, c, a)
	}
}

// TestArrayEvictionIsLRU pins the free-way and LRU selection order: fills
// into an empty set take the lowest-index invalid way, and eviction picks
// the least recently used way of the allowed range.
func TestArrayEvictionIsLRU(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 4, LineBytes: 128, WriteBack: true}
	a := New(cfg)
	// Lines hash to set 0 trivially (Sets=1).
	for i := uint64(0); i < 4; i++ {
		if _, ev, _ := a.Fill(i, 0, PartAll, false); ev {
			t.Fatalf("fill %d evicted with free ways remaining", i)
		}
	}
	a.Lookup(0, 0) // touch 0: LRU is now line 1
	v, ev, _ := a.Fill(100, 0, PartAll, false)
	if !ev || v.Line != 1 {
		t.Fatalf("evicted %+v (ev=%v), want line 1", v, ev)
	}
}

// TestArraySplitLookupEquivalence pins FindLine+CommitLookup ≡ Lookup on a
// sectored array, including the sector-miss counter path.
func TestArraySplitLookupEquivalence(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, LineBytes: 128, Sectors: 4, WriteBack: true}
	a := New(cfg)
	b := New(cfg)
	a.Fill(7, 1, PartAll, false)
	b.Fill(7, 1, PartAll, false)
	cases := []struct {
		line   uint64
		sector int
	}{{7, 1}, {7, 2}, {9, 0}, {7, 1}}
	for i, tc := range cases {
		got := a.CommitLookup(a.FindLine(tc.line), tc.sector)
		want := b.Lookup(tc.line, tc.sector)
		if got != want {
			t.Fatalf("case %d: split lookup = %v, plain = %v", i, got, want)
		}
	}
	if a.Hits != b.Hits || a.Misses != b.Misses || a.SectorMiss != b.SectorMiss {
		t.Fatalf("split/plain counters diverged: %d/%d/%d vs %d/%d/%d",
			a.Hits, a.Misses, a.SectorMiss, b.Hits, b.Misses, b.SectorMiss)
	}
}
