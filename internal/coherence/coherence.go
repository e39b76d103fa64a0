// Package coherence provides the two coherence schemes the paper evaluates
// for SM-side-capable LLCs.
//
// Software coherence (the baseline, §2.1/§3.6): caches are kept consistent
// by flush/invalidate operations at software synchronization points — in
// this model, kernel boundaries. When the LLC is configured SM-side, the
// kernel-boundary flush extends from the L1s to the LLC: dirty lines are
// written back (consuming memory bandwidth) and all lines invalidated.
// The flush cost is charged by the gpu package using cache.FlushAll.
//
// Hardware coherence (§5.6 sensitivity): a directory at each line's home
// chip tracks which chips hold an LLC copy. A write updates the local copy
// and invalidates all other copies (the paper's variant deliberately does
// NOT update the home copy, avoiding the false-sharing write traffic HMG
// suffers). Invalidation messages cross the inter-chip ring as control
// traffic.
package coherence

import "fmt"

// Protocol selects the coherence scheme.
type Protocol uint8

const (
	// Software — flush/invalidate at kernel boundaries.
	Software Protocol = iota
	// Hardware — directory-based write-invalidate.
	Hardware
)

func (p Protocol) String() string {
	switch p {
	case Software:
		return "software"
	case Hardware:
		return "hardware"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Directory tracks, per line homed on one chip, the set of chips whose LLC
// holds a copy. It exists only while an SM-side (or hybrid) configuration
// runs under hardware coherence.
type Directory struct {
	chips   int
	sharers map[uint64]uint8

	// Counters.
	Invalidations int64 // sharer copies invalidated by writes
	WriteMisses   int64 // writes that found no other sharer
}

// NewDirectory returns an empty directory for a system of n chips (<= 8).
func NewDirectory(chips int) *Directory {
	if chips < 1 || chips > 8 {
		panic("coherence: chips must be in 1..8")
	}
	return &Directory{chips: chips, sharers: make(map[uint64]uint8)}
}

// AddSharer records that chip now holds a copy of line (on LLC fill).
func (d *Directory) AddSharer(line uint64, chip int) {
	d.sharers[line] |= 1 << uint(chip)
}

// RemoveSharer records that chip dropped its copy (eviction or invalidate).
func (d *Directory) RemoveSharer(line uint64, chip int) {
	m := d.sharers[line] &^ (1 << uint(chip))
	if m == 0 {
		delete(d.sharers, line)
	} else {
		d.sharers[line] = m
	}
}

// Sharers returns the chips currently holding a copy of line.
func (d *Directory) Sharers(line uint64) []int {
	m := d.sharers[line]
	if m == 0 {
		return nil
	}
	out := make([]int, 0, d.chips)
	for c := 0; c < d.chips; c++ {
		if m&(1<<uint(c)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// IsSharer reports whether chip holds a copy of line.
func (d *Directory) IsSharer(line uint64, chip int) bool {
	return d.sharers[line]&(1<<uint(chip)) != 0
}

// WriteInvalidate processes a write by writerChip: every other sharer must
// drop its copy. It returns the chips to invalidate (the caller generates
// the ring control messages and LLC invalidations) and updates the
// directory so only the writer remains a sharer.
func (d *Directory) WriteInvalidate(line uint64, writerChip int) []int {
	m := d.sharers[line] &^ (1 << uint(writerChip))
	if m == 0 {
		d.WriteMisses++
		return nil
	}
	out := make([]int, 0, d.chips)
	for c := 0; c < d.chips; c++ {
		if m&(1<<uint(c)) != 0 {
			out = append(out, c)
			d.Invalidations++
		}
	}
	d.sharers[line] = 1 << uint(writerChip)
	return out
}

// Lines returns the number of tracked lines (for overhead reporting).
func (d *Directory) Lines() int { return len(d.sharers) }

// Reset clears all sharer state and the counters: a reset directory is in
// the state NewDirectory returns.
func (d *Directory) Reset() {
	clear(d.sharers)
	d.Invalidations, d.WriteMisses = 0, 0
}
