package cache

import "fmt"

// The array-of-structs cache every level ran on before the struct-of-arrays
// Cache replaced it, kept — complete and unexported — as the oracle of
// TestArrayMatchesCache: an independent implementation of the same set hash,
// LRU, partition and flush rules that the production array must
// match step for step.

type aosWay struct {
	valid   bool
	tag     uint64
	dirty   bool
	lastUse int64 // LRU timestamp
	remote  bool  // line's home chip differs from the cache's chip (Fig 9 census)
	sectors uint8 // per-sector valid bits (sectored mode); all-ones otherwise
}

// aosCache is the array-of-structs set-associative cache.
type aosCache struct {
	cfg        Config
	sets       [][]aosWay
	tick       int64
	setMask    int // Sets-1 when Sets is a power of two, else -1
	localWays  int // ways reserved for PartLocal; rest are PartRemote
	partActive bool

	// Counters.
	Hits        int64
	Misses      int64
	SectorMiss  int64 // tag hit but sector invalid (sectored mode only)
	Evictions   int64
	Writebacks  int64
	Invalidates int64
}

// newAoS returns an empty oracle cache.
func newAoS(cfg Config) *aosCache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	if cfg.Sectors > 8 {
		panic("cache: at most 8 sectors per line")
	}
	sets := make([][]aosWay, cfg.Sets)
	backing := make([]aosWay, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	mask := -1
	if cfg.Sets&(cfg.Sets-1) == 0 {
		mask = cfg.Sets - 1
	}
	return &aosCache{cfg: cfg, sets: sets, setMask: mask, localWays: cfg.Ways}
}

// Cfg returns the cache's configuration.
func (c *aosCache) Cfg() Config { return c.cfg }

// SetPartition reserves the first localWays ways of every set for local data
// and the remainder for remote data, activating partitioned allocation.
// localWays must be in [1, Ways-1]. Used by the Static and Dynamic LLCs.
func (c *aosCache) SetPartition(localWays int) {
	if localWays < 1 || localWays >= c.cfg.Ways {
		panic(fmt.Sprintf("cache: localWays %d out of [1,%d)", localWays, c.cfg.Ways))
	}
	c.localWays = localWays
	c.partActive = true
}

func (c *aosCache) setIndex(line uint64) int {
	// Lines arriving here were already spread across slices by the PAE hash;
	// a second small mix decorrelates the set index from the slice index.
	h := int((line * 0x9e3779b97f4a7c15) >> 32)
	if c.setMask >= 0 {
		return h & c.setMask // identical to % for power-of-two set counts
	}
	return h % c.cfg.Sets
}

func (c *aosCache) wayRange(p Partition) (lo, hi int) {
	lo, hi = 0, c.cfg.Ways
	if c.partActive && p != PartAll {
		if p == PartLocal {
			hi = c.localWays
		} else {
			lo = c.localWays
		}
	}
	return lo, hi
}

// Lookup probes for a line (and sector, when sectored). It updates LRU on a
// hit but never allocates. Returns whether the access hit.
func (c *aosCache) Lookup(line uint64, sector int) bool {
	c.tick++
	set := c.sets[c.setIndex(line)]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			if c.cfg.Sectors > 1 && w.sectors&sectorBit(sector) == 0 {
				c.SectorMiss++
				c.Misses++
				return false
			}
			w.lastUse = c.tick
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports whether the line (and sector) is present without touching
// LRU or counters. Used by coherence and by the occupancy census.
func (c *aosCache) Probe(line uint64, sector int) bool {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			return c.cfg.Sectors <= 1 || w.sectors&sectorBit(sector) != 0
		}
	}
	return false
}

// Fill installs a line (or adds a sector to an already-present line) in the
// partition's way range, evicting the LRU way of that range if needed.
// remote annotates whether the line's home is another chip. The returned
// victim is valid only when evicted is true.
func (c *aosCache) Fill(line uint64, sector int, p Partition, remote bool) (victim Victim, evicted bool) {
	c.tick++
	set := c.sets[c.setIndex(line)]
	// Sector fill into an existing line?
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.sectors |= sectorBit(sector)
			w.lastUse = c.tick
			return Victim{}, false
		}
	}
	lo, hi := c.wayRange(p)
	// Free way in range?
	for i := lo; i < hi; i++ {
		if !set[i].valid {
			c.install(&set[i], line, sector, remote)
			return Victim{}, false
		}
	}
	// Evict LRU in range.
	lru := lo
	for i := lo + 1; i < hi; i++ {
		if set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	w := &set[lru]
	victim = Victim{Line: w.tag, Dirty: w.dirty && c.cfg.WriteBack, Remote: w.remote}
	c.Evictions++
	if victim.Dirty {
		c.Writebacks++
	}
	c.install(w, line, sector, remote)
	return victim, true
}

func (c *aosCache) install(w *aosWay, line uint64, sector int, remote bool) {
	w.valid = true
	w.tag = line
	w.dirty = false
	w.remote = remote
	w.lastUse = c.tick
	if c.cfg.Sectors > 1 {
		w.sectors = sectorBit(sector)
	} else {
		w.sectors = 1
	}
}

// MarkDirty sets the dirty bit of a present line (stores hitting a
// write-back cache). It is a no-op when the line is absent.
func (c *aosCache) MarkDirty(line uint64) {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].dirty = true
			return
		}
	}
}

// Invalidate drops a line if present, returning whether it was dirty (the
// caller is responsible for the writeback traffic). Used by hardware
// coherence.
func (c *aosCache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			c.Invalidates++
			dirty := w.dirty && c.cfg.WriteBack
			w.valid = false
			w.dirty = false
			return true, dirty
		}
	}
	return false, false
}

// FlushAll invalidates every line and returns the number of dirty lines
// that needed writing back — the cost SAC pays when reconfiguring away from
// a configuration with dirty LLC state, and the cost software coherence
// pays at kernel boundaries.
func (c *aosCache) FlushAll() (dirtyLines int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if w.valid {
				if w.dirty && c.cfg.WriteBack {
					dirtyLines++
					c.Writebacks++
				}
				w.valid = false
				w.dirty = false
				c.Invalidates++
			}
		}
	}
	return dirtyLines
}

// FlushAllFunc invalidates every line like FlushAll, additionally invoking
// onDirty for each dirty line so the caller can issue the writeback traffic.
func (c *aosCache) FlushAllFunc(onDirty func(line uint64, remote bool)) (dirtyLines int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if w.valid {
				if w.dirty && c.cfg.WriteBack {
					dirtyLines++
					c.Writebacks++
					if onDirty != nil {
						onDirty(w.tag, w.remote)
					}
				}
				w.valid = false
				w.dirty = false
				c.Invalidates++
			}
		}
	}
	return dirtyLines
}

// FlushDirty writes back and invalidates only the dirty lines, leaving clean
// lines resident — the cost of SAC's memory-side → SM-side reconfiguration
// under software coherence (§3.6 step 2).
func (c *aosCache) FlushDirty(onDirty func(line uint64, remote bool)) (dirtyLines int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if w.valid && w.dirty && c.cfg.WriteBack {
				dirtyLines++
				c.Writebacks++
				if onDirty != nil {
					onDirty(w.tag, w.remote)
				}
				w.valid = false
				w.dirty = false
				c.Invalidates++
			}
		}
	}
	return dirtyLines
}

// Occupancy counts valid lines, split into local-homed and remote-homed —
// the Figure 9 census.
func (c *aosCache) Occupancy() (local, remote int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			w := &c.sets[s][i]
			if !w.valid {
				continue
			}
			if w.remote {
				remote++
			} else {
				local++
			}
		}
	}
	return local, remote
}

// DirtyLines counts lines with the dirty bit set.
func (c *aosCache) DirtyLines() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				n++
			}
		}
	}
	return n
}
