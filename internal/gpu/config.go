// Package gpu composes the substrates — SMs with private L1s, per-chip
// crossbar NoCs, LLC slices with MSHRs, the inter-chip ring, DRAM
// partitions, first-touch page placement, PAE address mapping, coherence,
// and the SAC controller — into the multi-chip GPU simulator of the paper's
// Table 3, and runs workloads through it cycle by cycle.
package gpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/sm"
	"repro/internal/workload"
)

// Config describes one simulated system. The zero value is unusable; start
// from PaperConfig or ScaledConfig and override.
type Config struct {
	// Topology.
	Chips         int
	SMsPerChip    int
	WarpsPerSM    int
	SMsPerCluster int // SMs sharing one NoC port (2 in the paper)
	SlicesPerChip int

	// Capacities.
	LLCBytesPerChip int
	LLCWays         int
	L1BytesPerSM    int
	L1Ways          int
	Geom            memsys.Geometry
	Sectored        bool // sectored LLC (4 sectors/line) vs conventional

	// Bandwidths, bytes per cycle.
	ClusterBW  float64 // per SM-cluster NoC port, each network
	SliceBW    float64 // per LLC slice
	RingLinkBW float64 // per neighbour pair, per direction
	ChannelBW  float64 // per DRAM channel

	ChannelsPerChip int
	// BanksPerChannel > 0 enables DRAM bank/row-buffer timing (see
	// internal/dram); the default presets keep it 0 (pure bandwidth +
	// latency), matching the recorded experiments.
	BanksPerChannel int

	// Latencies, cycles.
	L1Latency      int64
	LLCLatency     int64
	DRAMLatency    int64
	RingHopLatency int64

	// Policies.
	Org          llc.Org
	Coherence    coherence.Protocol
	SACOpts      core.Options
	DynamicEpoch int64

	// Structural limits.
	MSHRPerSlice int
	QueueBound   int

	// Workload scale divisor (footprints are divided by this; LLC and L1
	// capacities above must already reflect it).
	WorkloadScale int

	// Safety stop: a run exceeding this many cycles fails loudly.
	MaxCycles int64

	// Progress watchdog: a run in which no request retires (and no idle
	// span can be skipped) for this many consecutive cycles aborts with a
	// StallError carrying a queue-occupancy dump. 0 disables the watchdog;
	// MaxCycles remains the outer safety stop.
	WatchdogCycles int64
}

// PaperConfig returns the paper's Table 3 baseline at full scale:
// 4 chips × 64 SMs, 4 MB LLC per chip, 4 TB/s NoC bisection per chip,
// 768 GB/s inter-chip ring, 1.75 TB/s GDDR6, 1 GHz (so 1 GB/s = 1 B/cycle).
func PaperConfig() Config {
	return Config{
		Chips:         4,
		SMsPerChip:    64,
		WarpsPerSM:    64,
		SMsPerCluster: 2,
		SlicesPerChip: 16,

		LLCBytesPerChip: 4 << 20,
		LLCWays:         16,
		L1BytesPerSM:    128 << 10,
		L1Ways:          8,
		Geom:            memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4},

		ClusterBW:  128,  // 32 clusters × 128 B/c = 4 TB/s per chip
		SliceBW:    256,  // 16 slices × 256 B/c = 4 TB/s per chip, 16 TB/s total
		RingLinkBW: 96,   // 4 pairs × 2 dirs × 96 = 768 GB/s
		ChannelBW:  54.7, // 8 ch × 54.7 ≈ 437 GB/s per chip, 1.75 TB/s total

		ChannelsPerChip: 8,

		L1Latency:      20,
		LLCLatency:     30,
		DRAMLatency:    dram.GDDR6.LatencyCyc,
		RingHopLatency: 60,

		Org:          llc.MemorySide,
		Coherence:    coherence.Software,
		DynamicEpoch: 4096,

		MSHRPerSlice: 64,
		QueueBound:   64,

		WorkloadScale:  1,
		MaxCycles:      2_000_000_000,
		WatchdogCycles: 2_000_000,
	}
}

// ScaledConfig returns the laptop-scale preset the test suite and benches
// use (DESIGN.md §7): per-chip compute and bandwidth divided by 4, cache
// capacities and workload footprints divided by 8. Every ratio the EAB model
// consumes — intra:inter bandwidth, footprint:LLC capacity, DRAM:LLC
// bandwidth — matches the paper configuration.
func ScaledConfig() Config {
	c := PaperConfig()
	c.SMsPerChip = 16
	c.WarpsPerSM = 8
	c.SMsPerCluster = 2 // 8 clusters per chip
	c.SlicesPerChip = 4

	c.LLCBytesPerChip = 512 << 10 // 4 MB / 8
	c.L1BytesPerSM = 16 << 10     // 128 KB / 8

	c.ClusterBW = 128 // 8 clusters × 128 = 1 TB/s per chip (÷4)
	c.SliceBW = 256   // 4 slices × 256 = 1 TB/s per chip (÷4)
	c.RingLinkBW = 24 // 96 / 4
	c.ChannelBW = 54.7
	c.ChannelsPerChip = 2 // 2 × 54.7 ≈ 109 B/c per chip (÷4)

	c.WorkloadScale = 8
	// The profiling window must cover the workload's intra-chip reuse
	// distance for the CRD to see past compulsory misses; at this scale the
	// rotated-reuse turnover is ~4x slower than the paper's full machine, so
	// the 2K-cycle default grows accordingly (the window ablation bench
	// sweeps this).
	c.SACOpts.WindowCycles = 6000
	c.MaxCycles = 50_000_000
	c.WatchdogCycles = 1_000_000
	return c
}

// MCMConfig returns an interposer-based multi-chip-module variant of the
// scaled baseline (the paper's intro taxonomy): the same chips connected by
// interposer-class links with 8x the ring bandwidth — the right end of the
// Figure 14 inter-chip-bandwidth axis, where the organizations converge.
func MCMConfig() Config {
	c := ScaledConfig()
	c.RingLinkBW *= 8 // 768 GB/s unidirectional per pair at full scale
	c.RingHopLatency = 20
	return c
}

// MultiSocketConfig returns a PCB-level multi-socket variant of the scaled
// baseline: PCIe-class links at half the baseline ring bandwidth and higher
// hop latency — the left end of the Figure 14 axis, where caching remote
// data locally matters most.
func MultiSocketConfig() Config {
	c := ScaledConfig()
	c.RingLinkBW /= 2 // 48 GB/s unidirectional per pair at full scale
	c.RingHopLatency = 120
	return c
}

// MaxSlicesPerChip bounds SlicesPerChip: each chip tracks which slices hold
// queued lookups in one 64-bit activity word (chip.sliceBusy).
const MaxSlicesPerChip = 64

// MaxSMsPerChip bounds SMsPerChip: each chip tracks which SMs can wake on
// their own in a fixed set of 64-bit words (chip.smLive). Four times the
// paper's 64-SM chip, and past the 126 SMs at which a chip's crossbars take
// their wide-port walk.
const MaxSMsPerChip = 256

// MaxWarpsPerSM bounds WarpsPerSM (the paper's value): an SM tracks its
// runnable warps in one word.
const MaxWarpsPerSM = sm.MaxWarps

// Validate checks internal consistency.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	switch {
	case c.Chips < 2 || c.Chips > 8:
		return fmt.Errorf("gpu: chips must be in 2..8, got %d", c.Chips)
	case c.SMsPerChip < 1 || c.SMsPerChip > MaxSMsPerChip:
		return fmt.Errorf("gpu: SMsPerChip must be in 1..%d, got %d", MaxSMsPerChip, c.SMsPerChip)
	case c.WarpsPerSM < 1 || c.WarpsPerSM > MaxWarpsPerSM:
		return fmt.Errorf("gpu: WarpsPerSM must be in 1..%d, got %d", MaxWarpsPerSM, c.WarpsPerSM)
	case c.SMsPerCluster < 1 || c.SMsPerChip%c.SMsPerCluster != 0:
		return fmt.Errorf("gpu: SMsPerCluster %d must divide SMsPerChip %d", c.SMsPerCluster, c.SMsPerChip)
	case c.SlicesPerChip < 1 || c.ChannelsPerChip < 1:
		return fmt.Errorf("gpu: need slices and channels")
	case c.SlicesPerChip > MaxSlicesPerChip:
		return fmt.Errorf("gpu: SlicesPerChip must be at most %d, got %d", MaxSlicesPerChip, c.SlicesPerChip)
	case c.SlicesPerChip%c.ChannelsPerChip != 0:
		return fmt.Errorf("gpu: channels %d must divide slices %d", c.ChannelsPerChip, c.SlicesPerChip)
	case c.LLCBytesPerChip <= 0 || c.L1BytesPerSM <= 0:
		return fmt.Errorf("gpu: non-positive cache capacity")
	case c.LLCWays < 2 || c.LLCWays > cache.MaxWays:
		return fmt.Errorf("gpu: LLCWays must be in 2..%d (>= 2 for the partitioned organizations), got %d", cache.MaxWays, c.LLCWays)
	case c.L1Ways < 1 || c.L1Ways > cache.MaxWays:
		return fmt.Errorf("gpu: L1Ways must be in 1..%d, got %d", cache.MaxWays, c.L1Ways)
	case c.ClusterBW <= 0 || c.SliceBW <= 0 || c.RingLinkBW <= 0 || c.ChannelBW <= 0:
		return fmt.Errorf("gpu: non-positive bandwidth")
	case c.WorkloadScale < 1:
		return fmt.Errorf("gpu: workload scale must be >= 1")
	case c.MSHRPerSlice < 1 || c.MSHRPerSlice > cache.MaxMSHREntries:
		return fmt.Errorf("gpu: MSHRPerSlice must be in 1..%d (the MSHR table is sized eagerly), got %d", cache.MaxMSHREntries, c.MSHRPerSlice)
	case c.QueueBound < 0:
		return fmt.Errorf("gpu: negative QueueBound %d", c.QueueBound)
	case c.MaxCycles <= 0:
		return fmt.Errorf("gpu: MaxCycles must be positive")
	case c.WatchdogCycles < 0:
		return fmt.Errorf("gpu: negative WatchdogCycles %d", c.WatchdogCycles)
	}
	llcLines := c.LLCBytesPerChip / c.Geom.LineBytes / c.SlicesPerChip
	if llcLines%c.LLCWays != 0 || llcLines/c.LLCWays == 0 {
		return fmt.Errorf("gpu: LLC slice lines %d not divisible into %d ways", llcLines, c.LLCWays)
	}
	l1Lines := c.L1BytesPerSM / c.Geom.LineBytes
	if l1Lines%c.L1Ways != 0 || l1Lines/c.L1Ways == 0 {
		return fmt.Errorf("gpu: L1 lines %d not divisible into %d ways", l1Lines, c.L1Ways)
	}
	return nil
}

// ClustersPerChip returns the number of SM-cluster NoC ports per chip.
func (c Config) ClustersPerChip() int { return c.SMsPerChip / c.SMsPerCluster }

// Machine returns the workload-facing machine shape.
func (c Config) Machine() workload.Machine {
	return workload.Machine{
		Chips:      c.Chips,
		SMsPerChip: c.SMsPerChip,
		WarpsPerSM: c.WarpsPerSM,
		Geom:       c.Geom,
		Scale:      c.WorkloadScale,
	}
}

// ArchParams derives the EAB model's architecture inputs (system-aggregate
// bytes/cycle) from the configuration.
func (c Config) ArchParams() core.ArchParams {
	intraPerChip := min(
		float64(c.ClustersPerChip())*c.ClusterBW,
		float64(c.SlicesPerChip)*c.SliceBW,
	)
	return core.ArchParams{
		BIntra: float64(c.Chips) * intraPerChip,
		BInter: float64(c.Chips) * 2 * c.RingLinkBW,
		BLLC:   float64(c.Chips) * float64(c.SlicesPerChip) * c.SliceBW,
		BMem:   float64(c.Chips) * float64(c.ChannelsPerChip) * c.ChannelBW,
	}
}

// SectorCount returns the effective sector count of the LLC (1 when the
// configuration uses conventional caches).
func (c Config) SectorCount() int {
	if c.Sectored {
		return c.Geom.Sectors
	}
	return 1
}

// CRDConfig sizes the chip-request directory SAC profiles with: the paper's
// 8 sets × 16 ways (§3.2), sampling this configuration's LLC sets.
func (c Config) CRDConfig() core.CRDConfig {
	return core.CRDConfig{
		Sets: 8, Ways: 16,
		Sectors:        c.SectorCount(),
		LLCSetsPerChip: c.LLCBytesPerChip / c.Geom.LineBytes / c.SlicesPerChip / c.LLCWays * c.SlicesPerChip,
	}
}

// WithOrg returns a copy running a different LLC organization.
func (c Config) WithOrg(o llc.Org) Config {
	c.Org = o
	return c
}
