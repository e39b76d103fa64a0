package server

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"

	"repro/client"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/llc"
	"repro/internal/obs"
)

// The identity memo. Equal identity fields always resolve to the same
// identity, yet resolving one — copying the catalog spec, validating the
// config, hashing the store key's canonical JSON — costs a warm cell more
// than the store read that answers it. A resolver remembers what it
// resolved, so a repeated request resolves once per sacd. It caches
// addresses, not results: the store and the flight table stay the only
// memos of what a cell computes.
//
// A remembered Identity is shared by every job that hits it: its
// Spec.Kernels array and its *fault.Plan are read, never written, by
// everything downstream (backend.Run, the gpu and estimate rungs, the store
// step), as TestMemoSharedIdentityStaysUntouched checks under -race.

const (
	// memoSets × memoWays is how many identities one sacd remembers: each
	// ≈ 0.5 KiB inline plus the key string and spec kernels it points to.
	memoSetBits = 7
	memoSets    = 1 << memoSetBits
	memoWays    = 8
	// memoMaxFaults bounds the fault-plan text of a remembered request, so
	// plans cannot grow a full memo past 1 MiB (TestResolverCapacity): a
	// longer one resolves every time. One event is ≈ 20 bytes.
	memoMaxFaults = 32
)

// configBitsLen is the length of appendConfigBits' encoding: eight bytes for
// each of gpu.Config's 34 leaf fields.
const configBitsLen = 34 * 8

// appendConfigBits appends c's fields in declaration order, eight
// little-endian bytes each, a float as its IEEE-754 bits: what the memo
// hashes. A field added to gpu.Config must be added here (and, if it is a
// float, to negZeros); TestConfigBitsCoverEveryField fails until it is.
func appendConfigBits(b []byte, c *gpu.Config) []byte {
	o := &c.SACOpts
	for _, v := range [configBitsLen / 8]uint64{
		uint64(c.Chips), uint64(c.SMsPerChip), uint64(c.WarpsPerSM), uint64(c.SMsPerCluster), uint64(c.SlicesPerChip),
		uint64(c.LLCBytesPerChip), uint64(c.LLCWays), uint64(c.L1BytesPerSM), uint64(c.L1Ways),
		uint64(c.Geom.LineBytes), uint64(c.Geom.PageBytes), uint64(c.Geom.Sectors), bit(c.Sectored),
		math.Float64bits(c.ClusterBW), math.Float64bits(c.SliceBW), math.Float64bits(c.RingLinkBW), math.Float64bits(c.ChannelBW),
		uint64(c.ChannelsPerChip), uint64(c.L1Latency), uint64(c.LLCLatency), uint64(c.DRAMLatency), uint64(c.RingHopLatency),
		uint64(c.Org), uint64(c.Coherence),
		uint64(o.WindowCycles), math.Float64bits(o.Theta), bit(o.DisableLSU), uint64(o.ReprofileEvery),
		uint64(c.DynamicEpoch), uint64(c.MSHRPerSlice), uint64(c.QueueBound), uint64(c.WorkloadScale),
		uint64(c.MaxCycles), uint64(c.WatchdogCycles),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// sameConfigBits reports whether a and b are bit-for-bit equal, which ==
// alone does not decide: it equates 0 and −0, and their store keys differ.
// (A NaN is unequal even to itself, so a non-finite config matches nothing.)
func sameConfigBits(a, b *gpu.Config) bool {
	return *a == *b && negZeros(a) == negZeros(b)
}

// negZeros has bit i set when c's i-th float field is −0.
func negZeros(c *gpu.Config) uint8 {
	var m uint8
	for i, f := range [...]float64{c.ClusterBW, c.SliceBW, c.RingLinkBW, c.ChannelBW, c.SACOpts.Theta} {
		if math.Signbit(f) {
			m |= 1 << i
		}
	}
	return m
}

// memoKey is a request's identity fields: everything identityOf reads. It
// lives on the stack of one Resolve.
type memoKey struct {
	benchmark, org, preset, faults, fidelity string
	explicit                                 bool
	// cfg is an explicit config with Org set to the org the request names,
	// as resolve sets it: the Cfg of the identity it resolves to.
	cfg gpu.Config
}

// setRequest fills k from req at rung fid. It fails, as resolve would, when
// req names no known org for its explicit config; identityOf then says why.
func (k *memoKey) setRequest(req *client.JobRequest, fid string) error {
	k.benchmark, k.org, k.preset, k.faults, k.fidelity = req.Benchmark, req.Org, req.Preset, req.Faults, fid
	if req.Config == nil {
		return nil
	}
	org, err := llc.ParseOrg(req.Org)
	if err != nil {
		return err
	}
	k.explicit, k.cfg = true, *req.Config
	k.cfg.Org = org
	return nil
}

func (k *memoKey) hash(seed maphash.Seed) uint64 {
	var h uint64
	if k.explicit {
		var b [configBitsLen]byte
		h = maphash.Bytes(seed, appendConfigBits(b[:0], &k.cfg))
	}
	for _, s := range [...]string{k.benchmark, k.org, k.preset, k.faults, k.fidelity} {
		// A golden-ratio multiply carries every field into the high bits,
		// which pick the set.
		h = (h ^ maphash.String(seed, s)) * 0x9e3779b97f4a7c15
	}
	return h
}

// memoEntry is one remembered identity with the key fields it does not
// already hold: the benchmark is its Spec.Name, an explicit config its Cfg.
type memoEntry struct {
	org, preset, faults, fidelity string
	explicit                      bool
	ident                         jobs.Identity
}

func (k *memoKey) entry(ident jobs.Identity) memoEntry {
	return memoEntry{org: k.org, preset: k.preset, faults: k.faults, fidelity: k.fidelity,
		explicit: k.explicit, ident: ident}
}

// matches compares an explicit config bit for bit (sameConfigBits): θ 0
// and −0 are == and key differently.
func (e *memoEntry) matches(k *memoKey) bool {
	return e.ident.Spec.Name == k.benchmark && e.org == k.org && e.preset == k.preset &&
		e.faults == k.faults && e.fidelity == k.fidelity && e.explicit == k.explicit &&
		(!k.explicit || sameConfigBits(&e.ident.Cfg, &k.cfg))
}

// memoSet is one set of ways. A lookup scans the hashes, one cache line,
// and compares only an entry whose hash matches.
type memoSet struct {
	hashes [memoWays]uint64
	used   [memoWays]bool
	next   int // the way the next insert replaces once every way is used
	ways   [memoWays]memoEntry
}

// find returns the way remembering k, or -1.
func (s *memoSet) find(h uint64, k *memoKey) int {
	for i, eh := range s.hashes {
		if eh == h && s.used[i] && s.ways[i].matches(k) {
			return i
		}
	}
	return -1
}

// resolver is ResolveRequest behind a bounded identity memo, one per sacd
// Server. It is safe for concurrent use; a hit allocates nothing and a miss
// no more than ResolveRequest.
type resolver struct {
	defaultFidelity string
	seed            maphash.Seed
	hits, misses    *obs.Metric

	mu   sync.Mutex
	sets *[memoSets]memoSet
}

// newResolver returns an empty resolver applying defaultFidelity to requests
// that name no rung, counting lookups into hits and misses.
func newResolver(defaultFidelity string, hits, misses *obs.Metric) *resolver {
	return &resolver{
		defaultFidelity: defaultFidelity,
		seed:            maphash.MakeSeed(),
		hits:            hits,
		misses:          misses,
		sets:            new([memoSets]memoSet),
	}
}

// Resolve is ResolveRequest(req, defaultFidelity), answered from the memo
// when an earlier request had the same identity fields. The job checks run
// on every request; only successes are remembered.
func (r *resolver) Resolve(req client.JobRequest) (jobs.Identity, error) {
	if err := checkJob(&req); err != nil {
		return jobs.Identity{}, err
	}
	fid := effectiveFidelity(&req, r.defaultFidelity)
	var k memoKey
	if err := k.setRequest(&req, fid); err != nil {
		r.misses.Inc()
		return identityOf(&req, fid)
	}
	h := k.hash(r.seed)
	set := &r.sets[h>>(64-memoSetBits)]
	var ident jobs.Identity
	if r.recall(set, h, &k, &ident) {
		r.hits.Inc()
		return ident, nil
	}
	r.misses.Inc()
	ident, err := identityOf(&req, fid)
	if err == nil && len(req.Faults) <= memoMaxFaults {
		r.remember(set, h, &k, ident)
	}
	return ident, err
}

// recall copies the identity set remembers for k into ident.
func (r *resolver) recall(set *memoSet, h uint64, k *memoKey, ident *jobs.Identity) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := set.find(h, k)
	if i >= 0 {
		*ident = set.ways[i].ident
	}
	return i >= 0
}

// remember files ident in set unless a concurrent miss already has; a full
// set gives up its ways in turn.
func (r *resolver) remember(set *memoSet, h uint64, k *memoKey, ident jobs.Identity) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if set.find(h, k) >= 0 {
		return
	}
	way := set.next
	set.next = (way + 1) % memoWays
	set.hashes[way], set.used[way] = h, true
	set.ways[way] = k.entry(ident)
}
