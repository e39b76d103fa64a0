// Package dram models one chip's memory partition: a set of channels, each
// with a bandwidth-gated request queue and a fixed access latency. The LLC
// slices have point-to-point links to their memory controllers (paper §3.3:
// local LLC misses are not bandwidth-limited between LLC and memory), so the
// only contended resource is the channel's data bandwidth itself.
//
// The package also carries the memory-interface presets used by the
// Figure 14 sensitivity sweep (GDDR5, GDDR6, HBM2).
package dram

import (
	"fmt"

	"repro/internal/bwsim"
	"repro/internal/memsys"
)

// Interface is a memory-technology preset.
type Interface struct {
	Name       string
	TotalGBs   float64 // total system bandwidth in GB/s at full (paper) scale
	LatencyCyc int64   // access latency in core cycles
}

// Presets matching the paper's Figure 14 memory-interface axis. The paper's
// default (Table 3) is GDDR6 at 1.75 TB/s over 32 channels.
var (
	GDDR5 = Interface{Name: "GDDR5", TotalGBs: 875, LatencyCyc: 220}
	GDDR6 = Interface{Name: "GDDR6", TotalGBs: 1750, LatencyCyc: 200}
	HBM2  = Interface{Name: "HBM2", TotalGBs: 2900, LatencyCyc: 180}
)

// Config sizes one memory partition.
type Config struct {
	Channels   int
	ChannelBW  float64 // bytes/cycle per channel
	Latency    int64   // access latency in cycles
	QueueBound int     // per-channel queue back-pressure threshold

	// BanksPerChannel > 0 enables bank-level row-buffer timing (see
	// banks.go); 0 keeps the pure bandwidth + fixed-latency model.
	BanksPerChannel int
	Timing          BankTiming // used when BanksPerChannel > 0
}

// channel is one DRAM channel: its request queue, data-bandwidth bucket and
// access-latency pipeline held by value in one record, so Tick decides
// whether a channel has work from one contiguous struct.
type channel struct {
	banks    *banks // nil when bank timing is disabled
	queue    bwsim.Queue[*memsys.Request]
	inFlight bwsim.DelayLine[*memsys.Request]
	bucket   bwsim.TokenBucket
	scale    float64 // residual health (1 = full bandwidth)
	bytes    int64   // data bytes moved (the per-channel breakdown of BytesMoved)
}

// hot reports whether the channel needs its per-cycle visit even with no
// completion due: a queued request may issue, or the bucket is below its cap
// and an Advance would change its credit. A cold channel's visit would pop
// nothing, clamp the bucket where it already sits and issue nothing.
func (ch *channel) hot() bool { return !ch.queue.Empty() || !ch.bucket.AtCap() }

// headDue returns the due cycle of the channel's oldest in-flight access —
// the only one PopDue looks at — or noneDue.
func (ch *channel) headDue() int64 {
	if due, ok := ch.inFlight.NextDue(); ok {
		return due
	}
	return noneDue
}

// noneDue is nextDue with nothing in flight.
const noneDue = int64(1) << 62

// Partition is the memory system attached to one GPU chip.
type Partition struct {
	chans   []channel
	cfg     Config
	pending int
	lastRef int64

	// What Tick reads instead of looping over the channels to learn that
	// none has anything to do. hot counts the hot channels; nextDue is the
	// earliest headDue over all channels. Both are exact between calls: Tick
	// recomputes them, and the three calls that heat a channel outside Tick
	// (Enqueue, SetChannelScale, DrainWriteback) adjust hot; accesses enter
	// and leave flight only inside Tick.
	hot     int
	nextDue int64

	// Stats.
	Reads      int64
	Writes     int64
	BytesMoved int64
}

// New returns an idle partition.
func New(cfg Config) *Partition {
	if cfg.Channels <= 0 || cfg.ChannelBW <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	if cfg.Latency < 1 {
		cfg.Latency = 1
	}
	if cfg.BanksPerChannel > 0 && cfg.Timing.RowBytes <= 0 {
		cfg.Timing = DefaultBankTiming()
	}
	// Every bucket starts one cycle of credit below its cap: all channels hot.
	p := &Partition{cfg: cfg, chans: make([]channel, cfg.Channels), hot: cfg.Channels, nextDue: noneDue}
	for c := range p.chans {
		ch := &p.chans[c]
		ch.queue = bwsim.NewQueue[*memsys.Request](cfg.QueueBound)
		ch.bucket = bwsim.NewBucket(cfg.ChannelBW)
		ch.scale = 1
		ch.inFlight = bwsim.NewDelayLine[*memsys.Request]()
		if cfg.BanksPerChannel > 0 {
			ch.banks = newBanks(cfg.BanksPerChannel, cfg.Timing)
		}
	}
	return p
}

// Cfg returns the partition's configuration.
func (p *Partition) Cfg() Config { return p.cfg }

// SetChannelScale throttles (or heals) one channel to scale of its
// configured bandwidth. Scale 0 is a failed channel: queued requests stay
// queued, CanAccept eventually reports false and back-pressure holds
// upstream requests at the LLC slices or ring. Accesses already issued to
// the channel's delay line complete normally.
func (p *Partition) SetChannelScale(ch int, scale float64) {
	if ch < 0 || ch >= p.cfg.Channels {
		panic(fmt.Sprintf("dram: no channel %d", ch))
	}
	if scale < 0 {
		scale = 0
	} else if scale > 1 {
		scale = 1
	}
	c := &p.chans[ch]
	was := c.hot()
	c.scale = scale
	c.bucket.SetRate(p.cfg.ChannelBW * scale)
	p.rehot(c, was)
}

// rehot keeps the hot count exact across a change to channel ch's queue or
// bucket; was is what ch.hot() read before the change.
func (p *Partition) rehot(ch *channel, was bool) {
	if is := ch.hot(); is != was {
		if is {
			p.hot++
		} else {
			p.hot--
		}
	}
}

// ChannelScale returns the current residual scale of a channel.
func (p *Partition) ChannelScale(ch int) float64 { return p.chans[ch].scale }

// ChannelBytes returns the total data bytes channel ch has moved; windowed
// deltas give the channel's occupancy.
func (p *Partition) ChannelBytes(ch int) int64 { return p.chans[ch].bytes }

// ChannelQueueLen returns the instantaneous request-queue depth of one
// channel (in-flight accesses excluded).
func (p *Partition) ChannelQueueLen(ch int) int { return p.chans[ch].queue.Len() }

// CanAccept reports whether channel ch has queue space. This is the shared
// memory-controller request queue of §3.1: both local LLC misses and
// bypassing remote misses contend for it, and when it is full the selection
// logic must hold the request in the queue ahead of the LLC slice.
func (p *Partition) CanAccept(ch int) bool { return !p.chans[ch].queue.Full() }

// Enqueue submits a request to its channel. Callers must honor CanAccept.
func (p *Partition) Enqueue(req *memsys.Request) {
	if req.Channel < 0 || req.Channel >= p.cfg.Channels {
		panic(fmt.Sprintf("dram: request channel %d outside %d channels", req.Channel, p.cfg.Channels))
	}
	ch := &p.chans[req.Channel]
	was := ch.hot()
	ch.queue.Push(req)
	p.rehot(ch, was)
	p.pending++
}

// Pending returns queued plus in-flight requests.
func (p *Partition) Pending() int { return p.pending }

// Tick advances one cycle; completed requests are passed to done.
// Reads move a full line of data; writes (writebacks and write-through
// stores) also move a full line. Every access costs lineBytes of channel
// bandwidth.
func (p *Partition) Tick(now int64, lineBytes int, done func(*memsys.Request)) {
	if p.pending == 0 {
		p.lastRef = now
		return
	}
	dt := now - p.lastRef
	p.lastRef = now
	if p.hot == 0 && now < p.nextDue {
		// Every channel is cold and no completion is due: the loop below
		// would pop nothing, clamp buckets that sit at their cap and issue
		// nothing.
		return
	}
	nextDue := noneDue
	for c := range p.chans {
		ch := &p.chans[c]
		// A cold channel with nothing in flight does no work this cycle: the
		// only state change would be the bucket advance, which at the cap
		// only clamps. Skipping it is bit-exact.
		if ch.inFlight.Len() == 0 && !ch.hot() {
			continue
		}
		// Completions first. done may Enqueue on this partition (a fill's
		// dirty victim written back to local memory); Enqueue keeps hot exact
		// itself, and nothing below reads the channel's state from before it.
		for ch.inFlight.HeadDue(now) {
			req, _ := ch.inFlight.PopDue(now)
			p.pending--
			done(req)
		}
		// Issue new accesses under the bandwidth gate (and, when enabled,
		// the bank occupancy gate).
		was := ch.hot()
		ch.bucket.Advance(dt)
		for !ch.queue.Empty() && ch.bucket.CanTake() {
			extra := int64(0)
			if ch.banks != nil {
				head, _ := ch.queue.Peek()
				e, ok := ch.banks.admit(now, head, lineBytes)
				if !ok {
					break // head-of-line waits for its bank
				}
				extra = e
			}
			req, _ := ch.queue.Pop()
			ch.bucket.Take(lineBytes)
			p.BytesMoved += int64(lineBytes)
			ch.bytes += int64(lineBytes)
			if req.Kind == memsys.Write {
				p.Writes++
			} else {
				p.Reads++
			}
			ch.inFlight.Insert(now, p.cfg.Latency+extra, req)
		}
		p.rehot(ch, was)
		if due := ch.headDue(); due < nextDue {
			nextDue = due
		}
	}
	p.nextDue = nextDue
}

// NextEvent returns the earliest future cycle at which the partition can
// make progress: now+1 while any channel has queued requests (issue is
// bandwidth-gated per cycle), else the earliest in-flight completion, or -1
// when the partition is fully idle.
func (p *Partition) NextEvent(now int64) int64 {
	if p.pending == 0 {
		return -1
	}
	for c := range p.chans {
		if !p.chans[c].queue.Empty() {
			return now + 1
		}
	}
	if p.nextDue == noneDue {
		return -1
	}
	return p.nextDue
}

// CheckActivity verifies hot and nextDue against the channels they summarise.
// Invariant tests call it between simulated cycles; nothing else does.
func (p *Partition) CheckActivity() error {
	hot, nextDue := 0, noneDue
	for c := range p.chans {
		ch := &p.chans[c]
		if ch.hot() {
			hot++
		}
		if due := ch.headDue(); due < nextDue {
			nextDue = due
		}
	}
	if hot != p.hot || nextDue != p.nextDue {
		return fmt.Errorf("dram: hot %d nextDue %d, channels say %d and %d", p.hot, p.nextDue, hot, nextDue)
	}
	return nil
}

// RowBufferStats aggregates bank statistics over the partition's channels
// (zeros when bank timing is disabled).
func (p *Partition) RowBufferStats() (hits, misses, conflicts int64) {
	for c := range p.chans {
		b := p.chans[c].banks
		if b == nil {
			continue
		}
		hits += b.RowHits
		misses += b.RowMisses
		conflicts += b.Conflicts
	}
	return hits, misses, conflicts
}

// DrainWriteback accounts for a background writeback (e.g. during an LLC
// flush) without a request object: it consumes channel bandwidth only.
func (p *Partition) DrainWriteback(ch int, lineBytes int) {
	if ch < 0 || ch >= p.cfg.Channels {
		panic("dram: bad channel")
	}
	p.Writes++
	p.BytesMoved += int64(lineBytes)
	c := &p.chans[ch]
	c.bytes += int64(lineBytes)
	was := c.hot()
	c.bucket.Take(lineBytes)
	p.rehot(c, was)
}
