package gpu

import (
	"fmt"

	"repro/internal/bwsim"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/noc"
	"repro/internal/sm"
)

// llcSlice is one LLC slice: a bandwidth-gated lookup queue in front of a
// set-associative array with an MSHR file; hits leave through the chip's
// hit-latency pipeline (chip.hitDelay). The SAC bypass path (selection
// logic, mux/demux) is modelled in the system's routing: bypassing requests
// go straight to the memory controller's shared queue and never enter
// lookupQ.
type llcSlice struct {
	arr     *cache.Cache
	mshr    *cache.MSHR
	lookupQ bwsim.Queue[*memsys.Request]
	bkt     bwsim.TokenBucket
	lastRef int64 // cycle of the last lookup-bucket refill (lazy catch-up)
}

// chip bundles one GPU chip's hardware. Fields holding pointers come first
// (the layout the fieldalignment check asks for).
type chip struct {
	reqNet  *noc.Crossbar
	respNet *noc.Crossbar
	mem     *dram.Partition
	dyn     *llc.DynamicController // Dynamic organization only
	dir     *coherence.Directory   // hardware coherence only
	sms     []*sm.SM
	slices  []llcSlice

	// Activity words: what the per-cycle loop reads instead of visiting every
	// component to learn it has nothing to do.
	//
	// smWake[i] mirrors sms[i].SleepUntil() — rewritten (setWake) after
	// every Issue, Receive and LoadStreams, the only calls that move it.
	// smLive has bit i set exactly while smWake[i] is finite: an SM whose
	// every live warp is blocked, or that has retired, sleeps until a
	// Receive and is not worth a visit, so issueChip walks the set bits in
	// SM index order and touches an SM only when it may issue.
	// smCluster[i] is SM i's request-NoC input port (i / SMsPerCluster).
	// wakeHint is the minimum over smWake as of the last issue pass;
	// issueChip skips the whole walk before it (deliverToSM lowers it).
	smWake    []int64
	smCluster []int32
	// hitDelay is the hit-latency pipeline of all the chip's slices: lookups
	// that hit enter it in the late phase (slice index order within a cycle)
	// and leave LLCLatency cycles later in the early phase, toward the
	// response network port of their slice (req.Slice). One line per chip
	// drains in the order per-slice lines scanned by index would: every
	// cycle with a hit due is stepped, so all hits due at once entered in
	// the same cycle.
	hitDelay bwsim.DelayLine[*memsys.Request]
	smLive   [MaxSMsPerChip / 64]uint64
	wakeHint int64
	// sliceBusy has bit i set exactly while slices[i].lookupQ holds a
	// request: set at the one Push (the request crossbar's delivery),
	// cleared when tickSlice drains the queue. A slice with an empty queue
	// does nothing in tickSlice — it even defers its bucket refill — so
	// visiting only the set bits, in index order, is the same walk.
	sliceBusy uint64

	idx int

	// Epoch accumulators for the Dynamic controller.
	lastRingBytes int64
	lastDRAMBytes int64
}

// Port layout of the request network:
//
//	inputs:  [0, clusters) SM clusters, [clusters] ring ingress
//	outputs: [0, slices) LLC slices, [slices] ring egress
//
// and of the response network:
//
//	inputs:  [0, slices) LLC slices, [slices] ring ingress
//	outputs: [0, clusters) SM clusters, [clusters] ring egress
func (c *chip) ringInReqPort(cfg *Config) int   { return cfg.ClustersPerChip() }
func (c *chip) ringOutReqPort(cfg *Config) int  { return cfg.SlicesPerChip }
func (c *chip) ringInRespPort(cfg *Config) int  { return cfg.SlicesPerChip }
func (c *chip) ringOutRespPort(cfg *Config) int { return cfg.ClustersPerChip() }

// setWake records SM i's wakeup cycle and whether it has one at all.
func (c *chip) setWake(i int, w int64) {
	c.smWake[i] = w
	if w < sm.Never {
		c.smLive[i>>6] |= 1 << uint(i&63)
	} else {
		c.smLive[i>>6] &^= 1 << uint(i&63)
	}
}

// newChip builds chip idx; its SMs allocate their requests from pool.
func newChip(cfg *Config, idx int, pool *memsys.Pool) *chip {
	clusters := cfg.ClustersPerChip()
	if cfg.SMsPerChip > MaxSMsPerChip {
		panic(fmt.Sprintf("gpu: %d SMs per chip exceed the %d the live-SM set holds", cfg.SMsPerChip, MaxSMsPerChip))
	}
	c := &chip{idx: idx}

	c.sms = make([]*sm.SM, cfg.SMsPerChip)
	c.smWake = make([]int64, cfg.SMsPerChip)
	c.smCluster = make([]int32, cfg.SMsPerChip)
	for i := range c.sms {
		c.smCluster[i] = int32(i / cfg.SMsPerCluster)
		c.sms[i] = sm.New(sm.Config{
			Chip:    idx,
			Index:   i,
			L1Lines: cfg.L1BytesPerSM / cfg.Geom.LineBytes,
			L1Ways:  cfg.L1Ways,
			Geom:    cfg.Geom,
			Sectors: cfg.SectorCount(),
			Pool:    pool,
		})
	}

	c.reqNet = noc.New(noc.Config{
		InPorts:      clusters + 1,
		OutPorts:     cfg.SlicesPerChip + 1,
		InBW:         cfg.ClusterBW,
		OutBW:        cfg.SliceBW,
		IngressBound: cfg.QueueBound,
	})
	c.respNet = noc.New(noc.Config{
		InPorts:      cfg.SlicesPerChip + 1,
		OutPorts:     clusters + 1,
		InBW:         cfg.SliceBW,
		OutBW:        cfg.ClusterBW,
		IngressBound: 0, // responses always drain (sized response path)
	})

	sliceLines := cfg.LLCBytesPerChip / cfg.Geom.LineBytes / cfg.SlicesPerChip
	if cfg.SlicesPerChip > MaxSlicesPerChip {
		panic(fmt.Sprintf("gpu: %d slices per chip exceed the %d the slice activity word holds", cfg.SlicesPerChip, MaxSlicesPerChip))
	}
	c.slices = make([]llcSlice, cfg.SlicesPerChip)
	for s := range c.slices {
		c.slices[s] = llcSlice{
			arr: cache.New(cache.Config{
				Sets:      sliceLines / cfg.LLCWays,
				Ways:      cfg.LLCWays,
				LineBytes: cfg.Geom.LineBytes,
				Sectors:   cfg.SectorCount(),
				WriteBack: true,
			}),
			mshr:    cache.NewMSHR(cfg.MSHRPerSlice),
			lookupQ: bwsim.NewQueue[*memsys.Request](cfg.QueueBound),
			bkt:     bwsim.NewBucket(cfg.SliceBW),
		}
	}
	c.hitDelay = bwsim.NewDelayLine[*memsys.Request]()

	c.mem = dram.New(dram.Config{
		Channels:        cfg.ChannelsPerChip,
		ChannelBW:       cfg.ChannelBW,
		Latency:         cfg.DRAMLatency,
		QueueBound:      cfg.QueueBound,
		BanksPerChannel: cfg.BanksPerChannel,
	})

	if cfg.Org == llc.Dynamic {
		c.dyn = llc.NewDynamicController(
			cfg.LLCWays, cfg.DynamicEpoch,
			2*cfg.RingLinkBW,
			float64(cfg.ChannelsPerChip)*cfg.ChannelBW,
		)
	}
	if cfg.Coherence == coherence.Hardware {
		c.dir = coherence.NewDirectory(cfg.Chips)
	}
	return c
}

// setPartition applies a local/remote way split to every slice.
func (c *chip) setPartition(localWays int) {
	for i := range c.slices {
		c.slices[i].arr.SetPartition(localWays)
	}
}

// clearPartition removes way partitioning from every slice.
func (c *chip) clearPartition() {
	for i := range c.slices {
		c.slices[i].arr.ClearPartition()
	}
}

// inflight counts requests resident in this chip's queues and pipelines
// (excluding the SMs' miss files, which the system tracks separately).
func (c *chip) inflight() int {
	n := c.reqNet.Pending() + c.respNet.Pending() + c.mem.Pending() + c.hitDelay.Len()
	for i := range c.slices {
		s := &c.slices[i]
		n += s.lookupQ.Len() + s.mshr.Len()
	}
	return n
}

// occupancy sums the Figure 9 census over the chip's slices.
func (c *chip) occupancy() (local, remote int) {
	for i := range c.slices {
		l, r := c.slices[i].arr.Occupancy()
		local += l
		remote += r
	}
	return local, remote
}

// llcCounters sums hits/misses over slices.
func (c *chip) llcCounters() (hits, misses int64) {
	for i := range c.slices {
		hits += c.slices[i].arr.Hits
		misses += c.slices[i].arr.Misses
	}
	return hits, misses
}
