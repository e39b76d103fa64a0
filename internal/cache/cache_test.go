package cache

import (
	"testing"
	"testing/quick"
)

func small(ways int) Config {
	return Config{Sets: 8, Ways: ways, LineBytes: 128, Sectors: 1, WriteBack: true}
}

func TestLookupMissThenFillHit(t *testing.T) {
	c := New(small(4))
	if c.Lookup(42, 0) {
		t.Fatal("empty cache hit")
	}
	c.Fill(42, 0, PartAll, false)
	if !c.Lookup(42, 0) {
		t.Fatal("fill did not install")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-per-set behaviour: fill a set beyond its ways and check
	// the least recently used line leaves first.
	c := New(Config{Sets: 1, Ways: 2, LineBytes: 128, WriteBack: true})
	c.Fill(1, 0, PartAll, false)
	c.Fill(2, 0, PartAll, false)
	c.Lookup(1, 0) // 1 is now MRU
	v, ev, _ := c.Fill(3, 0, PartAll, false)
	if !ev || v.Line != 2 {
		t.Fatalf("evicted %+v (ev=%v), want line 2", v, ev)
	}
	if !c.Probe(1, 0) || !c.Probe(3, 0) || c.Probe(2, 0) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, LineBytes: 128, WriteBack: true})
	c.Fill(1, 0, PartAll, false)
	c.MarkDirty(1)
	v, ev, _ := c.Fill(2, 0, PartAll, false)
	if !ev || !v.Dirty {
		t.Fatalf("victim %+v, want dirty line 1", v)
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, LineBytes: 128, WriteBack: false})
	c.Fill(1, 0, PartAll, false)
	c.MarkDirty(1)
	v, ev, _ := c.Fill(2, 0, PartAll, false)
	if !ev || v.Dirty {
		t.Fatalf("write-through cache produced dirty victim %+v", v)
	}
}

func TestPartitionedAllocation(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 4, LineBytes: 128, WriteBack: true})
	c.SetPartition(2) // ways 0-1 local, 2-3 remote
	// Four local fills must thrash within 2 ways.
	c.Fill(1, 0, PartLocal, false)
	c.Fill(2, 0, PartLocal, false)
	c.Fill(3, 0, PartLocal, false)
	if c.Probe(1, 0) {
		t.Fatal("local partition kept 3 lines in 2 ways")
	}
	// Remote fills must not evict local lines.
	c.Fill(100, 0, PartRemote, true)
	c.Fill(101, 0, PartRemote, true)
	if !c.Probe(2, 0) || !c.Probe(3, 0) {
		t.Fatal("remote fill evicted local partition")
	}
	v, ev, _ := c.Fill(102, 0, PartRemote, true)
	if !ev || !v.Remote {
		t.Fatalf("remote eviction %+v", v)
	}
	c.ClearPartition()
	if c.LocalWays() != 4 {
		t.Fatal("ClearPartition did not restore ways")
	}
}

func TestSetPartitionPanics(t *testing.T) {
	c := New(small(4))
	for _, bad := range []int{0, 4, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetPartition(%d) did not panic", bad)
				}
			}()
			c.SetPartition(bad)
		}()
	}
}

func TestSectoredCache(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2, LineBytes: 128, Sectors: 4, WriteBack: true})
	c.Fill(7, 1, PartAll, false)
	if !c.Lookup(7, 1) {
		t.Fatal("filled sector missing")
	}
	if c.Lookup(7, 2) {
		t.Fatal("unfilled sector hit")
	}
	if c.SectorMiss != 1 {
		t.Fatalf("SectorMiss = %d, want 1", c.SectorMiss)
	}
	// Sector fill into the same line must not evict.
	if _, ev, _ := c.Fill(7, 2, PartAll, false); ev {
		t.Fatal("sector fill evicted")
	}
	if !c.Lookup(7, 2) {
		t.Fatal("sector 2 still missing after fill")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small(2))
	c.Fill(9, 0, PartAll, false)
	c.MarkDirty(9)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v want true,true", present, dirty)
	}
	if c.Probe(9, 0) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestFlushAll(t *testing.T) {
	c := New(small(2))
	for l := uint64(0); l < 10; l++ {
		c.Fill(l, 0, PartAll, l%2 == 0)
		if l < 3 {
			c.MarkDirty(l)
		}
	}
	dirty := c.FlushAll()
	if dirty != 3 {
		t.Fatalf("FlushAll dirty = %d, want 3", dirty)
	}
	local, remote := c.Occupancy()
	if local+remote != 0 {
		t.Fatalf("occupancy after flush = %d,%d", local, remote)
	}
}

func TestOccupancyCensus(t *testing.T) {
	c := New(small(4))
	c.Fill(1, 0, PartAll, false)
	c.Fill(2, 0, PartAll, true)
	c.Fill(3, 0, PartAll, true)
	local, remote := c.Occupancy()
	if local != 1 || remote != 2 {
		t.Fatalf("occupancy = %d local, %d remote; want 1, 2", local, remote)
	}
}

func TestDirtyLinesAndHitRate(t *testing.T) {
	c := New(small(2))
	c.Fill(1, 0, PartAll, false)
	c.MarkDirty(1)
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines = %d", c.DirtyLines())
	}
	c.Lookup(1, 0)
	c.Lookup(2, 0)
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1 (hit rate 0.5)", c.Hits, c.Misses)
	}
}

// Property: capacity is never exceeded and a just-filled line is always
// present (when its partition has at least one way).
func TestFillInvariantProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(Config{Sets: 4, Ways: 4, LineBytes: 128, WriteBack: true})
		for _, l := range lines {
			c.Fill(uint64(l), 0, PartAll, false)
			if !c.Probe(uint64(l), 0) {
				return false
			}
		}
		local, remote := c.Occupancy()
		return local+remote <= c.Cfg().Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineBytes: 128},
		{Sets: 1, Ways: 0, LineBytes: 128},
		{Sets: 1, Ways: 1, LineBytes: 0},
		{Sets: 1, Ways: 1, LineBytes: 128, Sectors: 9},
		{Sets: 1, Ways: MaxWays + 1, LineBytes: 128},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Sets: 32, Ways: 16, LineBytes: 128}
	if cfg.Lines() != 512 {
		t.Fatalf("Lines = %d", cfg.Lines())
	}
	if cfg.Bytes() != 512*128 {
		t.Fatalf("Bytes = %d", cfg.Bytes())
	}
}

func TestFlushAllFuncReportsDirtyLines(t *testing.T) {
	c := New(small(4))
	c.Fill(1, 0, PartAll, false)
	c.Fill(2, 0, PartAll, true)
	c.Fill(3, 0, PartAll, true)
	c.MarkDirty(1)
	c.MarkDirty(3)
	var lines []uint64
	var remotes []bool
	n := c.FlushAllFunc(func(line uint64, remote bool) {
		lines = append(lines, line)
		remotes = append(remotes, remote)
	})
	if n != 2 || len(lines) != 2 {
		t.Fatalf("flushed %d dirty lines, want 2", n)
	}
	seen := map[uint64]bool{}
	for i, l := range lines {
		seen[l] = remotes[i]
	}
	if r, ok := seen[1]; !ok || r {
		t.Fatalf("line 1 missing or marked remote: %v", seen)
	}
	if r, ok := seen[3]; !ok || !r {
		t.Fatalf("line 3 missing or not remote: %v", seen)
	}
	if l, r := c.Occupancy(); l+r != 0 {
		t.Fatal("cache not emptied")
	}
	// Nil callback is allowed.
	c.Fill(9, 0, PartAll, false)
	c.MarkDirty(9)
	if n := c.FlushAllFunc(nil); n != 1 {
		t.Fatalf("nil-callback flush = %d", n)
	}
}

func TestFlushDirtyKeepsCleanLines(t *testing.T) {
	c := New(small(4))
	c.Fill(1, 0, PartAll, false) // clean
	c.Fill(2, 0, PartAll, false)
	c.MarkDirty(2)
	var flushed []uint64
	n := c.FlushDirty(func(line uint64, remote bool) { flushed = append(flushed, line) })
	if n != 1 || len(flushed) != 1 || flushed[0] != 2 {
		t.Fatalf("FlushDirty = %d, %v", n, flushed)
	}
	if !c.Probe(1, 0) {
		t.Fatal("clean line evicted by FlushDirty")
	}
	if c.Probe(2, 0) {
		t.Fatal("dirty line survived FlushDirty")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain")
	}
}

// MarkDirty is the by-line form of MarkDirtyWay the tests use; a no-op when
// the line is absent.
func (c *Cache) MarkDirty(line uint64) { c.MarkDirtyWay(c.FindLine(line)) }
