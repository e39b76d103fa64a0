package core

import "repro/internal/addr"

// CRD is the Chip Request Directory (§3.4, Figure 7): a small sampled tag
// structure that predicts the SM-side LLC hit rate while the machine runs
// the memory-side configuration. It samples n sets of the local LLC slice
// array; each CRD block holds a tag and one "Chip i" bit per chip (or one
// bit per chip per sector for sectored caches). On an access by chip i with
// a matching tag and the chip's bit already set, the access would have hit
// under the SM-side configuration ("CRD hit"). Profiling runs while the LLC
// is memory-side, which guarantees the CRD at a line's home chip observes
// every request to that line.
type CRD struct {
	// blocks holds sets×ways blocks, set-major; masks holds each block's
	// per-chip bitmask of sectors accessed (bit 0 for unsectored caches),
	// chips entries per block in block order.
	blocks   []crdBlock
	masks    []uint64
	sets     int
	ways     int
	chips    int
	sectors  int
	sampleOf int // the CRD samples its sets out of sampleOf LLC sets
	tick     int64

	// Counters (Figure 7: 'CRD requests' and 'CRD hits').
	Requests int64
	HitsN    int64
}

type crdBlock struct {
	tag     uint64
	lastUse int64
	valid   bool
}

// CRDConfig sizes a CRD. The paper's instance is 8 sets × 16 ways.
type CRDConfig struct {
	Sets    int
	Ways    int
	Chips   int
	Sectors int // 1 for conventional caches, 4 for sectored
	// LLCSetsPerChip is the number of LLC sets (per chip) being sampled
	// from; the CRD observes lines whose LLC set index falls on a sampled
	// set. Must be >= Sets.
	LLCSetsPerChip int
}

// NewCRD returns an empty CRD.
func NewCRD(cfg CRDConfig) *CRD {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.Chips <= 0 {
		panic("core: invalid CRD config")
	}
	if cfg.Sectors < 1 {
		cfg.Sectors = 1
	}
	if cfg.LLCSetsPerChip < cfg.Sets {
		cfg.LLCSetsPerChip = cfg.Sets
	}
	return &CRD{
		sets: cfg.Sets, ways: cfg.Ways, chips: cfg.Chips,
		sectors: cfg.Sectors, sampleOf: cfg.LLCSetsPerChip,
		blocks: make([]crdBlock, cfg.Sets*cfg.Ways),
		masks:  make([]uint64, cfg.Sets*cfg.Ways*cfg.Chips),
	}
}

// llcSet returns the line's LLC set index among the sampleOf sets the CRD
// samples from.
func (c *CRD) llcSet(line uint64) int { return int(addr.Mix64(line) % uint64(c.sampleOf)) }

// Sampled reports whether a line falls on one of the CRD's sampled sets.
// Sampling keys off the line's LLC set index so the CRD sees the same
// pressure the sampled sets see.
func (c *CRD) Sampled(line uint64) bool { return c.llcSet(line) < c.sets }

// Access records a profiling-window access to line by chip (and sector for
// sectored caches). Non-sampled lines are ignored. It returns whether the
// access would have been an SM-side hit.
func (c *CRD) Access(line uint64, chip, sector int) (smSideHit bool) {
	// One hash serves the sample check and the set index: a sampled line's
	// LLC set index is below sets, so it is its own CRD set.
	set := c.llcSet(line)
	if set >= c.sets {
		return false
	}
	c.tick++
	c.Requests++
	first := set * c.ways
	blocks := c.blocks[first : first+c.ways]
	secBit := uint64(1) << uint(sector%c.sectors)
	for w := range blocks {
		b := &blocks[w]
		if b.valid && b.tag == line {
			b.lastUse = c.tick
			m := &c.masks[(first+w)*c.chips+chip]
			if *m&secBit != 0 {
				c.HitsN++
				return true
			}
			*m |= secBit
			return false
		}
	}
	// Install (LRU within the CRD set).
	victim := 0
	for w := 1; w < len(blocks); w++ {
		if !blocks[w].valid {
			victim = w
			break
		}
		if blocks[w].lastUse < blocks[victim].lastUse {
			victim = w
		}
	}
	blocks[victim] = crdBlock{tag: line, lastUse: c.tick, valid: true}
	masks := c.masks[(first+victim)*c.chips : (first+victim+1)*c.chips]
	clear(masks)
	masks[chip] = secBit
	return false
}

// PredictedHitRate returns the SM-side hit-rate estimate: CRD hits divided
// by CRD requests (0 with no samples).
func (c *CRD) PredictedHitRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.HitsN) / float64(c.Requests)
}

// Reset clears contents and counters for a new profiling window. It keeps
// each block's lastUse stamp, which the install scan still reads (see
// TestCRDResetKeepsVictimStamps).
func (c *CRD) Reset() {
	for i := range c.blocks {
		c.blocks[i].valid = false
	}
	clear(c.masks)
	c.Requests, c.HitsN, c.tick = 0, 0, 0
}

// Budget is the per-chip hardware cost of SAC's counter architecture.
type Budget struct {
	CRDBytes    int // CRD tag + chip-bit storage
	LSUBytes    int // slice-request counters, both configurations
	ScalarBytes int // total/local request + CRD request/hit counters
	TotalBytes  int
}

// HardwareBudget reproduces the paper's §3.6 accounting: with the default
// parameters (8 sets × 16 ways, 30-bit tags, 4 chips, 16 slices per chip,
// 16-bit LSU counters, four 24-bit scalar counters) it returns 620 bytes per
// chip for conventional caches and 812 bytes for sectored caches.
func HardwareBudget(sets, ways, tagBits, chips, sectors, slicesPerChip int) Budget {
	bitsPerBlock := tagBits + chips*sectors
	crdBits := sets * ways * bitsPerBlock
	crdBytes := crdBits / 8
	// One 16-bit counter per local slice for each of the two configurations.
	lsuBytes := slicesPerChip * 2 * 16 / 8
	// 'Total requests', 'local requests', 'CRD requests', 'CRD hits' at 24
	// bits each.
	scalarBytes := 4 * 24 / 8
	return Budget{
		CRDBytes:    crdBytes,
		LSUBytes:    lsuBytes,
		ScalarBytes: scalarBytes,
		TotalBytes:  crdBytes + lsuBytes + scalarBytes,
	}
}
