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
// parallel slices, a per-set bitmap marks the valid ways (hence Ways <= 64),
// and a per-set row of 8-bit partial tags, eight ways to a word, answers a
// tag lookup with one SWAR byte compare per word — a miss usually reads the
// row and nothing else; a candidate is verified against the bitmap and the
// full tag. The lookup is decomposed into FindLine / CommitLookup so a probe
// and the subsequent counted access share one scan. The array-of-structs
// layout it replaced lives on in aos_test.go as the oracle of the
// differential test.
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
	// ptag holds rowWords words per set: byte w%8 of word w/8 is the partial
	// tag of way w (partialTag of its line) while the way is valid, anything
	// otherwise — stale after an invalidation, zero in a never-filled way or
	// the padding of the last word. Shares one backing array with tags and
	// occ.
	ptag    []uint64
	meta    []uint8 // wValid|wDirty|wRemote per way
	sectors []uint8 // per-sector valid bits per way

	cfg       Config
	tick      int64
	setMask   int // Sets-1 when Sets is a power of two, else -1
	rowWords  int // words per partial-tag row: ceil(Ways/8)
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
	rowWords := (cfg.Ways + 7) / 8
	words := make([]uint64, n+cfg.Sets+cfg.Sets*rowWords)
	return &Cache{
		cfg:        cfg,
		tags:       words[:n:n],
		occ:        words[n : n+cfg.Sets : n+cfg.Sets],
		ptag:       words[n+cfg.Sets:],
		lastUse:    make([]int64, n),
		meta:       make([]uint8, n),
		sectors:    make([]uint8, n),
		setMask:    mask,
		rowWords:   rowWords,
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

// locate returns line's set and its partial tag, both cut from one multiply:
// the set index from the product's middle bits, the partial tag from its top
// byte.
func (c *Cache) locate(line uint64) (set int, ptag uint64) {
	// Lines arriving here were already spread across slices by the PAE hash;
	// a second small mix decorrelates the set index from the slice index.
	m := line * 0x9e3779b97f4a7c15
	h := int(m >> 32)
	if c.setMask >= 0 {
		return h & c.setMask, m >> 56 // identical to % for power-of-two set counts
	}
	return h % c.cfg.Sets, m >> 56
}

const (
	swarOnes = 0x0101010101010101 // one in every byte: broadcasts a partial tag
	swarLow7 = 0x7f7f7f7f7f7f7f7f // the low seven bits of every byte
)

// findInSet returns the flat way index holding line in set, or -1. Each word
// of the set's partial-tag row is compared with the broadcast tag in one
// step: x has a zero byte exactly where a way's partial tag equals ptag, and
// the carry-free zero-byte test leaves that byte's top bit set and no other.
func (c *Cache) findInSet(set int, line, ptag uint64) int {
	pat := ptag * swarOnes
	for k, word := range c.ptag[set*c.rowWords : (set+1)*c.rowWords] {
		x := word ^ pat
		for m := ^((x&swarLow7 + swarLow7) | x | swarLow7); m != 0; m &= m - 1 {
			w := k*8 + bits.TrailingZeros64(m)>>3
			// A valid way, not a stale or padding byte, and the whole tag.
			if c.occ[set]>>uint(w)&1 != 0 && c.tags[set*c.cfg.Ways+w] == line {
				return set*c.cfg.Ways + w
			}
		}
	}
	return -1
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
	set, ptag := c.locate(line)
	return c.findInSet(set, line, ptag)
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
// victim is valid only when evicted is true; wi is the flat way index now
// holding the line (what FindLine would return), -1 when it was not retained.
func (c *Cache) Fill(line uint64, sector int, p Partition, remote bool) (victim Victim, evicted bool, wi int) {
	c.tick++
	set, ptag := c.locate(line)
	base := set * c.cfg.Ways
	// Sector fill into an existing line?
	if wi = c.findInSet(set, line, ptag); wi >= 0 {
		c.sectors[wi] |= sectorBit(sector)
		c.lastUse[wi] = c.tick
		return Victim{}, false, wi
	}
	lo, hi := c.wayRange(p)
	if lo >= hi {
		// No allocatable ways (slice disabled by fault injection): the line
		// is served but not retained.
		return Victim{}, false, -1
	}
	// Free way in range? First invalid way by index.
	// (1<<64 wraps to 0, so hi == 64 yields an all-ones upper mask.)
	rangeMask := (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
	if free := ^c.occ[set] & rangeMask; free != 0 {
		w := bits.TrailingZeros64(free)
		c.install(set, w, line, ptag, sector, remote)
		c.occ[set] |= 1 << uint(w)
		c.countInstall(remote)
		return Victim{}, false, base + w
	}
	// Evict LRU in range: the first way holding the oldest stamp.
	lru := lo
	stamps := c.lastUse[base+lo : base+hi]
	oldest := stamps[0]
	for i, t := range stamps[1:] {
		if t < oldest {
			oldest, lru = t, lo+1+i
		}
	}
	wi = base + lru
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
	c.install(set, lru, line, ptag, sector, remote)
	c.countInstall(remote)
	return victim, true, wi
}

// install writes line into way w of set: full tag, partial-tag byte, flags,
// LRU stamp and the first valid sector.
func (c *Cache) install(set, w int, line, ptag uint64, sector int, remote bool) {
	wi := set*c.cfg.Ways + w
	c.tags[wi] = line
	row := &c.ptag[set*c.rowWords+w>>3]
	shift := uint(w&7) * 8
	*row = *row&^(0xff<<shift) | ptag<<shift
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

// MarkDirtyWay sets the dirty bit of the line at flat way wi, a FindLine or
// Fill result (stores hitting or filling a write-back cache). A no-op for -1:
// the line is not there to be marked.
func (c *Cache) MarkDirtyWay(wi int) {
	if wi >= 0 {
		c.meta[wi] |= wDirty
	}
}

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
	set, ptag := c.locate(line)
	wi := c.findInSet(set, line, ptag)
	if wi < 0 {
		return false, false
	}
	c.Invalidates++
	dirty := c.meta[wi]&wDirty != 0 && c.cfg.WriteBack
	c.invalidateWay(set, wi)
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

// CheckRows verifies every set's partial-tag row against the state it
// summarises: the byte of each way valid in occ is the partial tag of the line
// in tags. Invariant tests call it between simulated cycles; nothing else
// does.
func (c *Cache) CheckRows() error {
	for set, valid := range c.occ {
		row := c.ptag[set*c.rowWords : (set+1)*c.rowWords]
		for ; valid != 0; valid &= valid - 1 {
			w := bits.TrailingZeros64(valid)
			line := c.tags[set*c.cfg.Ways+w]
			_, want := c.locate(line)
			if got := row[w>>3] >> (uint(w&7) * 8) & 0xff; got != want {
				return fmt.Errorf("cache: set %d way %d: partial tag %#x, line %#x has %#x", set, w, got, line, want)
			}
		}
	}
	return nil
}

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
