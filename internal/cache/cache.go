// Package cache implements the repository's one set-associative array — the
// structure an SM's private L1 and a chip's LLC slice both are, at two
// sizes — plus the MSHR file that tracks outstanding misses.
//
// The model is behavioural, not data-carrying: it tracks tags, LRU state,
// dirty bits, per-line home-chip annotations (for the local-vs-remote
// occupancy census of Figure 9), per-sector valid bits when sectored mode is
// on, and way-partition masks (the mechanism behind the Static/L1.5 and
// Dynamic LLC organizations, which reserve subsets of ways for local versus
// remote data).
//
// The layout is struct-of-arrays: the per-way metadata is split into
// parallel slices so a set scan walks contiguous packed tags, a per-set
// bitmap of valid ways bounds that scan (hence Ways <= 64), and the lookup
// is decomposed into FindLine / CommitLookup so a probe and the subsequent
// counted access share one tag scan. The array-of-structs layout it replaced
// lives on in aos_test.go as the oracle of the differential test.
package cache

import (
	"fmt"
	"math/bits"
)

// Partition selects which subset of ways an access may allocate into.
// The plain memory-side / SM-side organizations use PartAll; the Static and
// Dynamic organizations split ways between PartLocal and PartRemote.
type Partition uint8

const (
	// PartAll may allocate in any way.
	PartAll Partition = iota
	// PartLocal may allocate only in the ways reserved for local data.
	PartLocal
	// PartRemote may allocate only in the ways reserved for remote data.
	PartRemote
)

// MaxWays is the largest associativity New accepts: one bit per way in the
// per-set valid bitmap.
const MaxWays = 64

// Config describes a cache instance.
type Config struct {
	Sets      int  // number of sets (power of two not required)
	Ways      int  // associativity, at most MaxWays
	LineBytes int  // line size
	Sectors   int  // >1 enables sectored mode: tags are per line, validity per sector
	WriteBack bool // true for the LLC; the L1 is write-through and leaves this false
}

// Lines returns the total line capacity.
func (c Config) Lines() int { return c.Sets * c.Ways }

// Bytes returns the total data capacity in bytes.
func (c Config) Bytes() int { return c.Lines() * c.LineBytes }

// Victim describes a line evicted by Fill.
type Victim struct {
	Line   uint64
	Dirty  bool // needs a writeback (write-back caches only)
	Remote bool
}

const (
	wValid  uint8 = 1 << 0
	wDirty  uint8 = 1 << 1
	wRemote uint8 = 1 << 2
)

// Cache is a single set-associative cache array with struct-of-arrays
// metadata. Way w of set s lives at flat index s*Ways+w in every slice.
type Cache struct {
	tags    []uint64 // line tag per way
	lastUse []int64  // LRU timestamp per way
	occ     []uint64 // per-set bitmap of valid ways (Ways <= MaxWays)
	meta    []uint8  // wValid|wDirty|wRemote per way
	sectors []uint8  // per-sector valid bits per way

	cfg       Config
	tick      int64
	setMask   int // Sets-1 when Sets is a power of two, else -1
	occLocal  int // valid lines with a local home (incremental Fig-9 census)
	occRemote int // valid lines with a remote home

	localWays  int // ways reserved for PartLocal; rest are PartRemote
	usableWays int // ways not disabled by fault injection (Ways when healthy)
	partActive bool

	// Counters, the same at every level the array serves.
	Hits        int64
	Misses      int64
	SectorMiss  int64 // tag hit but sector invalid (sectored mode only)
	Evictions   int64
	Writebacks  int64
	Invalidates int64
}

// New returns an empty cache. Panics on an invalid config, as caches are
// constructed from static configuration (gpu.Config.Validate rejects the
// geometries an outside caller could ask for).
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	if cfg.Ways > MaxWays {
		panic(fmt.Sprintf("cache: at most %d ways", MaxWays))
	}
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	if cfg.Sectors > 8 {
		panic("cache: at most 8 sectors per line")
	}
	n := cfg.Sets * cfg.Ways
	mask := -1
	if cfg.Sets&(cfg.Sets-1) == 0 {
		mask = cfg.Sets - 1
	}
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint64, n),
		lastUse:    make([]int64, n),
		occ:        make([]uint64, cfg.Sets),
		meta:       make([]uint8, n),
		sectors:    make([]uint8, n),
		setMask:    mask,
		localWays:  cfg.Ways,
		usableWays: cfg.Ways,
	}
}

// Cfg returns the cache's configuration.
func (c *Cache) Cfg() Config { return c.cfg }

// SetPartition reserves the first localWays ways of every set for local data
// and the remainder for remote data, activating partitioned allocation.
// localWays must be in [1, Ways-1]. Used by the Static and Dynamic LLCs.
func (c *Cache) SetPartition(localWays int) {
	if localWays < 1 || localWays >= c.cfg.Ways {
		panic(fmt.Sprintf("cache: localWays %d out of [1,%d)", localWays, c.cfg.Ways))
	}
	c.localWays = localWays
	c.partActive = true
}

// ClearPartition disables partitioned allocation (all ways for everyone).
func (c *Cache) ClearPartition() {
	c.partActive = false
	c.localWays = c.cfg.Ways
}

// LocalWays returns the current local partition size (Ways when unpartitioned).
func (c *Cache) LocalWays() int { return c.localWays }

func (c *Cache) setIndex(line uint64) int {
	// Lines arriving here were already spread across slices by the PAE hash;
	// a second small mix decorrelates the set index from the slice index.
	h := int((line * 0x9e3779b97f4a7c15) >> 32)
	if c.setMask >= 0 {
		return h & c.setMask // identical to % for power-of-two set counts
	}
	return h % c.cfg.Sets
}

func (c *Cache) wayRange(p Partition) (lo, hi int) {
	lo, hi = 0, c.cfg.Ways
	if c.partActive && p != PartAll {
		if p == PartLocal {
			hi = c.localWays
		} else {
			lo = c.localWays
		}
	}
	// Disabled ways (fault injection) are clipped off the top of every
	// range; a range that vanishes entirely makes Fill a no-op.
	if hi > c.usableWays {
		hi = c.usableWays
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func sectorBit(sector int) uint8 { return 1 << uint(sector) }

// FindLine returns the flat way index holding line, or -1. It touches no
// LRU state and no counters; pair with CommitLookup (counted access) or use
// alone as a probe.
func (c *Cache) FindLine(line uint64) int {
	set := c.setIndex(line)
	base := set * c.cfg.Ways
	for b := c.occ[set]; b != 0; b &= b - 1 {
		wi := base + bits.TrailingZeros64(b)
		if c.tags[wi] == line {
			return wi
		}
	}
	return -1
}

// SectorValid reports whether the given sector of the line at flat way wi is
// valid (vacuously true for unsectored arrays).
func (c *Cache) SectorValid(wi int, sector int) bool {
	return c.cfg.Sectors <= 1 || c.sectors[wi]&sectorBit(sector) != 0
}

// CommitLookup applies the counter and LRU effects of one counted access to
// the FindLine result wi (-1 = not present), returning whether it hit.
// FindLine+CommitLookup ≡ Lookup.
func (c *Cache) CommitLookup(wi int, sector int) bool {
	c.tick++
	if wi < 0 {
		c.Misses++
		return false
	}
	if c.cfg.Sectors > 1 && c.sectors[wi]&sectorBit(sector) == 0 {
		c.SectorMiss++
		c.Misses++
		return false
	}
	c.lastUse[wi] = c.tick
	c.Hits++
	return true
}

// Lookup probes for a line (and sector, when sectored). It updates LRU on a
// hit but never allocates. Returns whether the access hit.
func (c *Cache) Lookup(line uint64, sector int) bool {
	return c.CommitLookup(c.FindLine(line), sector)
}

// Probe reports whether the line (and sector) is present without touching
// LRU or counters. Used by coherence and by the occupancy census.
func (c *Cache) Probe(line uint64, sector int) bool {
	wi := c.FindLine(line)
	return wi >= 0 && c.SectorValid(wi, sector)
}

// Fill installs a line (or adds a sector to an already-present line) in the
// partition's way range, evicting the LRU way of that range if needed.
// remote annotates whether the line's home is another chip. The returned
// victim is valid only when evicted is true.
func (c *Cache) Fill(line uint64, sector int, p Partition, remote bool) (victim Victim, evicted bool) {
	c.tick++
	set := c.setIndex(line)
	base := set * c.cfg.Ways
	// Sector fill into an existing line?
	if wi := c.FindLine(line); wi >= 0 {
		c.sectors[wi] |= sectorBit(sector)
		c.lastUse[wi] = c.tick
		return Victim{}, false
	}
	lo, hi := c.wayRange(p)
	if lo >= hi {
		// No allocatable ways (slice disabled by fault injection): the line
		// is served but not retained.
		return Victim{}, false
	}
	// Free way in range? First invalid way by index.
	// (1<<64 wraps to 0, so hi == 64 yields an all-ones upper mask.)
	rangeMask := (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
	if free := ^c.occ[set] & rangeMask; free != 0 {
		w := bits.TrailingZeros64(free)
		c.install(base+w, line, sector, remote)
		c.occ[set] |= 1 << uint(w)
		c.countInstall(remote)
		return Victim{}, false
	}
	// Evict LRU in range.
	lru := lo
	for i := lo + 1; i < hi; i++ {
		if c.lastUse[base+i] < c.lastUse[base+lru] {
			lru = i
		}
	}
	wi := base + lru
	m := c.meta[wi]
	victim = Victim{
		Line:   c.tags[wi],
		Dirty:  m&wDirty != 0 && c.cfg.WriteBack,
		Remote: m&wRemote != 0,
	}
	c.Evictions++
	if victim.Dirty {
		c.Writebacks++
	}
	c.countEvict(m)
	c.install(wi, line, sector, remote)
	c.countInstall(remote)
	return victim, true
}

func (c *Cache) install(wi int, line uint64, sector int, remote bool) {
	c.tags[wi] = line
	m := wValid
	if remote {
		m |= wRemote
	}
	c.meta[wi] = m
	c.lastUse[wi] = c.tick
	if c.cfg.Sectors > 1 {
		c.sectors[wi] = sectorBit(sector)
	} else {
		c.sectors[wi] = 1
	}
}

func (c *Cache) countInstall(remote bool) {
	if remote {
		c.occRemote++
	} else {
		c.occLocal++
	}
}

func (c *Cache) countEvict(m uint8) {
	if m&wRemote != 0 {
		c.occRemote--
	} else {
		c.occLocal--
	}
}

// MarkDirty sets the dirty bit of a present line (stores hitting a
// write-back cache). It is a no-op when the line is absent.
func (c *Cache) MarkDirty(line uint64) {
	if wi := c.FindLine(line); wi >= 0 {
		c.meta[wi] |= wDirty
	}
}

// MarkDirtyWay sets the dirty bit of the (present) line at flat way wi —
// the fused-lookup fast path, which already holds the FindLine result.
func (c *Cache) MarkDirtyWay(wi int) { c.meta[wi] |= wDirty }

// invalidateWay drops way wi of set; the caller accounts Writebacks and
// Invalidates itself (flush variants differ in ordering).
func (c *Cache) invalidateWay(set, wi int) {
	c.countEvict(c.meta[wi])
	c.meta[wi] &^= wValid | wDirty
	c.occ[set] &^= 1 << uint(wi-set*c.cfg.Ways)
}

// Invalidate drops a line if present, returning whether it was dirty (the
// caller is responsible for the writeback traffic). Used by hardware
// coherence.
func (c *Cache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	wi := c.FindLine(line)
	if wi < 0 {
		return false, false
	}
	c.Invalidates++
	dirty := c.meta[wi]&wDirty != 0 && c.cfg.WriteBack
	c.invalidateWay(c.setIndex(line), wi)
	return true, dirty
}

// LimitWays restricts allocation to the first usable ways of every set —
// the capacity-remapping model of a partially (or fully) disabled LLC
// slice. Lines resident in the disabled ways are invalidated; dirty ones
// are reported through onDirty so the caller can issue their writebacks.
// usable 0 kills the slice: every lookup misses and fills install nothing,
// so the slice's traffic falls through to memory. A later call with
// usable = Ways re-enables the hardware (its contents start cold).
func (c *Cache) LimitWays(usable int, onDirty func(line uint64, remote bool)) (dropped int) {
	if usable < 0 {
		usable = 0
	}
	if usable > c.cfg.Ways {
		usable = c.cfg.Ways
	}
	if usable < c.usableWays {
		for s := 0; s < c.cfg.Sets; s++ {
			base := s * c.cfg.Ways
			for i := usable; i < c.usableWays; i++ {
				wi := base + i
				m := c.meta[wi]
				if m&wValid == 0 {
					continue
				}
				if m&wDirty != 0 && c.cfg.WriteBack {
					c.Writebacks++
					if onDirty != nil {
						onDirty(c.tags[wi], m&wRemote != 0)
					}
				}
				c.invalidateWay(s, wi)
				c.Invalidates++
				dropped++
			}
		}
	}
	c.usableWays = usable
	return dropped
}

// FlushAll invalidates every line and returns the number of dirty lines
// that needed writing back — the cost SAC pays when reconfiguring away from
// a configuration with dirty LLC state, and the cost software coherence
// pays at kernel boundaries.
func (c *Cache) FlushAll() (dirtyLines int) { return c.FlushAllFunc(nil) }

// FlushAllFunc invalidates every line, invoking onDirty for each dirty line
// so the caller can issue the writeback traffic.
func (c *Cache) FlushAllFunc(onDirty func(line uint64, remote bool)) (dirtyLines int) {
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		for b := c.occ[s]; b != 0; b &= b - 1 {
			wi := base + bits.TrailingZeros64(b)
			m := c.meta[wi]
			if m&wDirty != 0 && c.cfg.WriteBack {
				dirtyLines++
				c.Writebacks++
				if onDirty != nil {
					onDirty(c.tags[wi], m&wRemote != 0)
				}
			}
			c.invalidateWay(s, wi)
			c.Invalidates++
		}
	}
	return dirtyLines
}

// FlushDirty writes back and invalidates only the dirty lines, leaving clean
// lines resident — the cost of SAC's memory-side → SM-side reconfiguration
// under software coherence (§3.6 step 2).
func (c *Cache) FlushDirty(onDirty func(line uint64, remote bool)) (dirtyLines int) {
	for s := 0; s < c.cfg.Sets; s++ {
		base := s * c.cfg.Ways
		for b := c.occ[s]; b != 0; b &= b - 1 {
			wi := base + bits.TrailingZeros64(b)
			m := c.meta[wi]
			if m&wDirty != 0 && c.cfg.WriteBack {
				dirtyLines++
				c.Writebacks++
				if onDirty != nil {
					onDirty(c.tags[wi], m&wRemote != 0)
				}
				c.invalidateWay(s, wi)
				c.Invalidates++
			}
		}
	}
	return dirtyLines
}

// Occupancy counts valid lines, split into local-homed and remote-homed —
// the Figure 9 census. O(1): maintained incrementally on install and evict.
func (c *Cache) Occupancy() (local, remote int) { return c.occLocal, c.occRemote }

// DirtyLines counts lines with the dirty bit set.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, m := range c.meta {
		if m&(wValid|wDirty) == wValid|wDirty {
			n++
		}
	}
	return n
}
