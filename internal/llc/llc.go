// Package llc defines the last-level-cache organizations the paper
// compares — memory-side, SM-side, Static (the L1.5 cache of Arunkumar et
// al.), Dynamic (the runtime way-partitioning of Milic et al.) and SAC — as
// pure routing/allocation policy, plus the Dynamic organization's
// way-rebalancing controller. The machinery that moves requests lives in
// internal/gpu and the set-associative array a slice is built from in
// internal/cache (SAC reconfigures the routing in front of the slices, never
// the array); everything here is deterministic policy that can be unit
// tested in isolation.
package llc

import (
	"fmt"

	"repro/internal/cache"
)

// Org identifies one of the five evaluated LLC organizations.
type Org uint8

const (
	// MemorySide — slices cache the local memory partition for all chips.
	MemorySide Org = iota
	// SMSide — slices cache whatever the local SMs access (two-NoC design).
	SMSide
	// Static — the L1.5: half the ways cache local data (memory-side role),
	// half cache remote data locally.
	Static
	// Dynamic — Static with the local/remote way split rebalanced at runtime.
	Dynamic
	// SAC — starts memory-side, may reconfigure to SM-side per kernel.
	SAC
)

// Orgs lists all organizations in the paper's comparison order.
func Orgs() []Org { return []Org{MemorySide, SMSide, Static, Dynamic, SAC} }

func (o Org) String() string {
	switch o {
	case MemorySide:
		return "memory-side"
	case SMSide:
		return "SM-side"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case SAC:
		return "SAC"
	default:
		return fmt.Sprintf("Org(%d)", uint8(o))
	}
}

// ParseOrg converts a string (as printed by String) back to an Org.
func ParseOrg(s string) (Org, error) {
	for _, o := range Orgs() {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("llc: unknown organization %q", s)
}

// Mode is the instantaneous routing configuration of the NoC + LLC
// controllers. SAC toggles between ModeMemorySide and ModeSMSide; the Static
// and Dynamic organizations run in ModeHybrid permanently.
type Mode uint8

const (
	// ModeMemorySide routes every request to the home chip's LLC.
	ModeMemorySide Mode = iota
	// ModeSMSide routes every request to the requesting chip's LLC.
	ModeSMSide
	// ModeHybrid looks up the requester's remote partition first, then the
	// home chip's local partition (Static/Dynamic organizations).
	ModeHybrid
)

func (m Mode) String() string {
	switch m {
	case ModeMemorySide:
		return "memory-side"
	case ModeSMSide:
		return "SM-side"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// InitialMode returns the mode an organization boots in. SAC profiles under
// the memory-side configuration (paper §3.2).
func (o Org) InitialMode() Mode {
	switch o {
	case SMSide:
		return ModeSMSide
	case Static, Dynamic:
		return ModeHybrid
	default:
		return ModeMemorySide
	}
}

// Partitioned reports whether the organization splits LLC ways between
// local and remote data.
func (o Org) Partitioned() bool { return o == Static || o == Dynamic }

// Route describes the path of one request under a mode.
type Route struct {
	// LookupChip is the chip whose LLC slice performs the first lookup.
	LookupChip int
	// Part is the allocation partition at the lookup chip.
	Part cache.Partition
	// SecondLookup: on a first-lookup miss for a remote-homed line, probe
	// the home chip's LLC before memory (hybrid organizations).
	SecondLookup bool
	// HomePart is the allocation partition at the home chip (second lookup
	// or memory-side fill).
	HomePart cache.Partition
	// BypassAtHome: the request must bypass the home chip's LLC slice and go
	// straight to the memory controller (SM-side remote miss, paper Fig. 6
	// step 4).
	BypassAtHome bool
}

// RouteFor computes the routing of a request from srcChip to a line homed on
// homeChip under mode m.
func RouteFor(m Mode, srcChip, homeChip int) Route {
	local := srcChip == homeChip
	switch m {
	case ModeMemorySide:
		return Route{LookupChip: homeChip, Part: cache.PartAll, HomePart: cache.PartAll}
	case ModeSMSide:
		r := Route{LookupChip: srcChip, Part: cache.PartAll, HomePart: cache.PartAll}
		if !local {
			r.BypassAtHome = true
		}
		return r
	case ModeHybrid:
		if local {
			return Route{LookupChip: srcChip, Part: cache.PartLocal, HomePart: cache.PartLocal}
		}
		return Route{
			LookupChip:   srcChip,
			Part:         cache.PartRemote,
			SecondLookup: true,
			HomePart:     cache.PartLocal,
		}
	default:
		panic(fmt.Sprintf("llc: unknown mode %v", m))
	}
}

// DynamicController implements the Dynamic organization's runtime
// way-rebalancing, following the design of Milic et al. (MICRO 2017): start
// from a half-local/half-remote split and periodically shift capacity toward
// whichever side of the LLC feeds the more saturated link — incoming
// inter-chip bandwidth versus outgoing local memory bandwidth. When the
// inter-chip links are busier, caching more remote data locally relieves
// them (grow the remote partition); when local memory is busier, grow the
// local partition.
type DynamicController struct {
	ways      int
	localWays int
	minLocal  int
	maxLocal  int
	epoch     int64
	lastAdj   int64

	// Epoch accumulators.
	ringBytes int64
	dramBytes int64
	ringCap   float64 // bytes/cycle the chip can move on its ring links
	dramCap   float64 // bytes/cycle of the chip's memory partition

	Adjustments int64
}

// Reset starts d afresh at the half/half split of ways, adjusting once per
// epoch cycles (4096 when epoch <= 0) against a chip's ring and DRAM
// bandwidths in bytes/cycle.
func (d *DynamicController) Reset(ways int, epoch int64, ringCap, dramCap float64) {
	if ways < 2 {
		panic("llc: dynamic controller needs >= 2 ways")
	}
	if epoch <= 0 {
		epoch = 4096
	}
	*d = DynamicController{
		ways: ways, localWays: ways / 2, epoch: epoch,
		// The partition moves at most a quarter of the ways from the
		// half/half start in either direction: the design keeps both
		// partitions functional rather than collapsing into a pure
		// memory-side or SM-side cache (Milic et al. adapt within a
		// partitioned organization, they do not switch organizations —
		// that observation is exactly SAC's contribution).
		minLocal: max(1, ways/4),
		maxLocal: min(ways-1, 3*ways/4),
		ringCap:  ringCap, dramCap: dramCap,
	}
}

// LocalWays returns the current ways reserved for local data.
func (d *DynamicController) LocalWays() int { return d.localWays }

// NextAdjust returns the next epoch-boundary cycle at which Tick can
// rebalance; cycle loops must not fast-forward past it (skipping the
// boundary would shift every subsequent epoch).
func (d *DynamicController) NextAdjust() int64 { return d.lastAdj + d.epoch }

// Observe accumulates one cycle's traffic for this chip.
func (d *DynamicController) Observe(ringBytes, dramBytes int64) {
	d.ringBytes += ringBytes
	d.dramBytes += dramBytes
}

// Tick advances the controller; at each epoch boundary it rebalances one way
// and returns true if the split changed. now is the global cycle.
func (d *DynamicController) Tick(now int64) (changed bool) {
	if now-d.lastAdj < d.epoch {
		return false
	}
	d.lastAdj = now
	ringUtil := float64(d.ringBytes) / (float64(d.epoch) * d.ringCap)
	dramUtil := float64(d.dramBytes) / (float64(d.epoch) * d.dramCap)
	d.ringBytes, d.dramBytes = 0, 0
	const margin = 0.05
	switch {
	case ringUtil > dramUtil+margin && d.localWays > d.minLocal:
		d.localWays--
		d.Adjustments++
		return true
	case dramUtil > ringUtil+margin && d.localWays < d.maxLocal:
		d.localWays++
		d.Adjustments++
		return true
	}
	return false
}
