// Package store is a content-addressed, on-disk cache of simulation
// results, keyed by a SHA-256 of each cell's full identity (configuration,
// workload, fault plan, fidelity rung) and shared by sacsweep and sacd.
//
// Results live in append-only pack segments (<seq>.pack), one record per
// line: the 64-hex key, a space, the JSON envelope, a newline. A Put is one
// write to the segment this store life created at its first Put; a disk read
// is one pread, verified (schema, key, SHA-256 of the result) every time. A
// record that fails is counted, dropped and reported as a miss; the next Put
// of its key heals it.
//
// Crashes: no life appends to an earlier life's segment, so a crash tears at
// most the last record of a file nobody appends to again. Open scans the
// segments in order (recency from write order) and drops and counts a torn
// tail; index.json, recency written by Close, is laid over the scan.
//
// MaxBytes bounds the live record bytes (LRU eviction). A sealed segment with
// no live record is deleted, and while sealed segments hold more dead than
// live bytes the sparsest is compacted: the directory holds at most
// 2×MaxBytes plus one segment. Pre-pack directories (objects/) start cold.
//
// Processes sharing a directory stay correct (none appends to another's
// segment; every read is verified), but each sees the others' new results
// only from its next Open, and one that reclaims a segment another still
// appends to loses the writer's later records to future Opens.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// schemaVersion is baked into every cache key: bump it when the meaning of a
// stored result changes, so stale entries become unreachable instead of
// wrong. v2 added the content hash (envelope.Sum).
const schemaVersion = 2

// KeyMaterial is the canonical identity of one simulation. Hashing its
// deterministic JSON encoding (json.Marshal's bytes, appended by hand) yields
// the cache key.
type KeyMaterial struct {
	Schema    int        `json:"schema"`
	Config    gpu.Config `json:"config"`
	Benchmark string     `json:"benchmark"`
	Faults    string     `json:"faults,omitempty"`
	// Fidelity is the rung that produced the result ("estimate", "sampled";
	// "" = cycle-exact, omitted so pre-ladder exact keys stand).
	Fidelity string `json:"fidelity,omitempty"`
}

// KeyAt returns the content address of one simulation cell: a hex SHA-256 of
// its canonical encoding. faults is fault.Plan.Key ("" = healthy); fidelity
// "" and "exact" address the same keys.
func KeyAt(cfg gpu.Config, benchmark, faults, fidelity string) string {
	return keyOf(materialAt(cfg, benchmark, faults, fidelity))
}

func materialAt(cfg gpu.Config, benchmark, faults, fidelity string) KeyMaterial {
	if fidelity == "exact" {
		fidelity = ""
	}
	return KeyMaterial{Schema: schemaVersion, Config: cfg, Benchmark: benchmark, Faults: faults, Fidelity: fidelity}
}

func keyOf(m KeyMaterial) string {
	var buf [1024]byte // a key's material is ≈ 700 bytes
	return hexSum(m.appendJSON(buf[:0]))
}

// marshalKey returns m's canonical JSON and the key it hashes to, so Put can
// embed the one and check the other from a single encoding.
func marshalKey(m KeyMaterial) ([]byte, string) {
	b := m.appendJSON(nil)
	return b, hexSum(b)
}

// appendJSON appends m's canonical encoding, byte-identical to
// json.Marshal(m), so every key and every stored object stays what it was
// when encoding/json wrote it.
func (m *KeyMaterial) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"schema":`...), int64(m.Schema), 10)
	b = m.Config.AppendJSON(append(b, `,"config":`...))
	b = wire.AppendString(append(b, `,"benchmark":`...), m.Benchmark)
	if m.Faults != "" {
		b = wire.AppendString(append(b, `,"faults":`...), m.Faults)
	}
	if m.Fidelity != "" {
		b = wire.AppendString(append(b, `,"fidelity":`...), m.Fidelity)
	}
	return append(b, '}')
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// rawEnvelope is the stored object layout: the key material, to verify the
// object against its address, and the raw result, exactly the bytes Sum (hex
// SHA-256, verified on every disk read) covers.
type rawEnvelope struct {
	Version int         `json:"version"`
	Key     KeyMaterial `json:"key"`
	Sum     string      `json:"sum"`
	// Cycles mirrors Result.Cycles (omitted when zero) so raw reads need not
	// parse the payload. Sum does not cover it.
	Cycles int64           `json:"cycles"`
	Result json.RawMessage `json:"result"`
}

// appendEnvelope appends one object built from the canonical key and result
// encodings: what encoding/json produces for rawEnvelope's fields, pinned
// byte for byte by TestObjectBytesGolden against a golden file.
func appendEnvelope(b, keyJSON, resJSON []byte, cycles int64) []byte {
	sum := sha256.Sum256(resJSON)
	b = strconv.AppendInt(append(b, `{"version":`...), schemaVersion, 10)
	b = append(append(append(b, `,"key":`...), keyJSON...), `,"sum":"`...)
	b = append(hex.AppendEncode(b, sum[:]), '"')
	if cycles != 0 {
		b = strconv.AppendInt(append(b, `,"cycles":`...), cycles, 10)
	}
	return append(append(append(b, `,"result":`...), resJSON...), '}')
}

// Options tune a Store.
type Options struct {
	// MaxBytes caps the live record bytes; the least-recently-used entries
	// are evicted when a Put exceeds it. 0 means unbounded.
	MaxBytes int64
	// Registry receives the store's five sacd_store_*_total counters (hits,
	// misses, evictions, put errors, corrupt records); nil keeps them in a
	// registry of the store's own. The Go accessors read them either way.
	Registry *obs.Registry
}

const (
	// hotBytes is the in-memory tier's budget of verified result bytes:
	// thousands of estimate results, small next to a simulation's.
	hotBytes = 64 << 20
	// segmentBytes is the size past which a store starts a new segment, and
	// so the compaction grain; a capped store uses MaxBytes/8 if smaller.
	segmentBytes = 32 << 20
	keyLen       = 2 * sha256.Size // a record's first field, the hex key
	packExt      = ".pack"
)

// segment is one pack file, held open for preads. Only the active one is
// ever appended to; every other is sealed.
type segment struct {
	f    *os.File
	size int64 // bytes in the file
	live int64 // bytes of the records the index points into it
}

// diskEntry is where one indexed object's record lies; Store.lru holds them.
type diskEntry struct {
	key       string
	seg       *segment
	off, size int64 // the whole record: key, space, envelope, newline
}

// Store is an open result cache rooted at one directory.
type Store struct {
	dir    string
	max    int64
	segMax int64

	mu     sync.Mutex
	idx    map[string]*list.Element // key → element whose Value is *diskEntry
	lru    *list.List               // front = most recently used
	total  int64                    // live record bytes
	segs   []*segment
	active *segment // nil until this life's first Put
	// reclaiming admits one reclaim at a time; it copies without holding mu.
	reclaiming sync.Mutex
	nextSeq    atomic.Uint64

	// Hot tier: verified result bytes kept in memory, so a repeat raw read
	// costs a map lookup, not a pread plus SHA-256. Entries are immutable
	// (callers treat a returned RawMessage as read-only). hotMu is taken
	// after mu where both are held.
	hotMu   sync.Mutex
	hot     map[string]*list.Element // key → element whose Value is *hotEntry
	hotLRU  *list.List               // front = most recently used
	hotSize int64
	hotMax  int64 // hotBytes; tests shrink it

	hits, misses, evictions, putErrors, corrupt *obs.Metric
}

// Open opens (creating if necessary) the store rooted at dir. It creates no
// file: the first Put creates this life's segment.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		dir: dir, max: opts.MaxBytes, segMax: segmentBytes,
		idx: make(map[string]*list.Element), lru: list.New(),
		hot: make(map[string]*list.Element), hotLRU: list.New(), hotMax: hotBytes,
		hits:      reg.Counter("sacd_store_hits_total", "Store reads served from disk."),
		misses:    reg.Counter("sacd_store_misses_total", "Store reads that found nothing usable."),
		evictions: reg.Counter("sacd_store_evictions_total", "Objects evicted by the LRU size cap."),
		putErrors: reg.Counter("sacd_store_put_errors_total", "Result write-backs that failed."),
		corrupt:   reg.Counter("sacd_store_corrupt_total", "Store records torn, damaged or failing verification."),
	}
	if s.max > 0 {
		s.segMax = max(min(segmentBytes, s.max/8), 1)
	}
	// Snapshot temp files a crash left between create and rename.
	orphans, _ := filepath.Glob(filepath.Join(dir, "index-*.tmp"))
	for _, o := range orphans {
		os.Remove(o)
	}
	s.scan()
	s.loadRecency()
	s.evictLocked() // the scan brings back records evicted but not yet reclaimed
	return s, nil
}

// scan indexes every segment in sequence order, so a later record of a key
// supersedes an earlier one and recency starts as write order. A line that is
// not a record (a torn tail, a damaged frame) is dropped and counted.
func (s *Store) scan() {
	names, _ := filepath.Glob(filepath.Join(s.dir, "*"+packExt))
	for _, name := range names { // Glob sorts, and the hex names sort by seq
		base := filepath.Base(name)
		seq, err := strconv.ParseUint(strings.TrimSuffix(base, packExt), 16, 64)
		if err != nil || len(base) != 16+len(packExt) {
			continue // not a segment this package names
		}
		s.nextSeq.Store(seq + 1)
		buf, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			continue
		}
		g := &segment{f: f, size: int64(len(buf))}
		s.segs = append(s.segs, g)
		for off := 0; off < len(buf); {
			nl := bytes.IndexByte(buf[off:], '\n')
			if nl < 0 {
				s.corrupt.Inc() // torn tail: a crash interrupted the last append
				break
			}
			if line := buf[off : off+nl+1]; len(line) > keyLen+2 && line[keyLen] == ' ' {
				s.indexLocked(string(line[:keyLen]), g, int64(off), int64(len(line)))
			} else {
				s.corrupt.Inc()
			}
			off += nl + 1
		}
	}
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// loadRecency consumes the clean-shutdown snapshot — read, removed, laid over
// the scan — so index.json exists only between a Close and the next Open.
func (s *Store) loadRecency() {
	var keys []string // least recently used first
	b, err := os.ReadFile(s.indexPath())
	if err != nil || os.Remove(s.indexPath()) != nil || json.Unmarshal(b, &keys) != nil {
		return
	}
	for _, k := range keys {
		if el, ok := s.idx[k]; ok {
			s.lru.MoveToFront(el)
		}
	}
}

// indexLocked records key's record at (g, off, size) as the most recently
// used object, replacing, and so killing, any previous record of it.
func (s *Store) indexLocked(key string, g *segment, off, size int64) {
	s.unindexLocked(key)
	s.idx[key] = s.lru.PushFront(&diskEntry{key: key, seg: g, off: off, size: size})
	g.live += size
	s.total += size
}

// unindexLocked forgets key if it is indexed; its record becomes dead.
func (s *Store) unindexLocked(key string) {
	if el, ok := s.idx[key]; ok {
		e := s.lru.Remove(el).(*diskEntry)
		e.seg.live -= e.size
		s.total -= e.size
		delete(s.idx, key)
	}
}

// touch marks key most recently used and returns where its record lies.
func (s *Store) touch(key string) (at diskEntry, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if ok {
		s.lru.MoveToFront(el)
		at = *el.Value.(*diskEntry)
	}
	return at, ok
}

// Get returns the stored result for key, or ok=false on a miss. A record that
// fails a check (JSON, schema, key, Sum) is dropped, counted and missed.
func (s *Store) Get(key string) (*stats.Run, bool) {
	raw, _, at, ok := s.getRaw(key)
	if !ok {
		return nil, false
	}
	var run stats.Run
	if err := json.Unmarshal(raw, &run); err != nil {
		// Unreachable for records Put wrote; a quarantine beats a panic.
		s.quarantine(at)
		s.misses.Inc()
		return nil, false
	}
	return &run, true
}

// GetRaw returns the stored result for key as verified raw JSON — the bytes
// Put wrote — plus its simulated cycles, or ok=false on a miss, so a warm hit
// goes to the wire without a decode. Corruption handling matches Get.
func (s *Store) GetRaw(key string) (json.RawMessage, int64, bool) {
	raw, cycles, _, ok := s.getRaw(key)
	return raw, cycles, ok
}

// hotEntry is one resident verified result.
type hotEntry struct {
	key    string
	raw    json.RawMessage
	cycles int64
}

// hotGet returns the resident bytes for key, bumping its recency.
func (s *Store) hotGet(key string) (json.RawMessage, int64, bool) {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	el, ok := s.hot[key]
	if !ok {
		return nil, 0, false
	}
	s.hotLRU.MoveToFront(el)
	e := el.Value.(*hotEntry)
	return e.raw, e.cycles, true
}

// hotPut inserts (or refreshes) key's verified bytes, evicting past the byte
// budget. Payloads over a quarter of it are skipped.
func (s *Store) hotPut(key string, raw json.RawMessage, cycles int64) {
	if int64(len(raw)) > s.hotMax/4 {
		return
	}
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	s.hotDropLocked(key)
	s.hot[key] = s.hotLRU.PushFront(&hotEntry{key: key, raw: raw, cycles: cycles})
	s.hotSize += int64(len(raw))
	for s.hotSize > s.hotMax {
		s.hotDropLocked(s.hotLRU.Back().Value.(*hotEntry).key)
	}
}

// hotDrop forgets key's resident bytes (quarantine, replacement, eviction).
func (s *Store) hotDrop(key string) {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	s.hotDropLocked(key)
}

func (s *Store) hotDropLocked(key string) {
	if el, ok := s.hot[key]; ok {
		s.hotSize -= int64(len(el.Value.(*hotEntry).raw))
		s.hotLRU.Remove(el)
		delete(s.hot, key)
	}
}

// HotLen returns the number of results resident in the in-memory tier.
func (s *Store) HotLen() int {
	if s == nil {
		return 0
	}
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	return len(s.hot)
}

// getRaw is the shared verified read beneath Get and GetRaw; at is where the
// bytes' record lay when they were read.
func (s *Store) getRaw(key string) (raw json.RawMessage, cycles int64, at diskEntry, ok bool) {
	if s == nil {
		return nil, 0, at, false
	}
	if raw, cycles, ok := s.hotGet(key); ok {
		at, _ = s.touch(key)
		s.hits.Inc()
		return raw, cycles, at, true
	}
	for try := 0; try < 2; try++ {
		if at, ok = s.touch(key); !ok {
			break
		}
		b := make([]byte, at.size)
		_, err := at.seg.f.ReadAt(b, at.off)
		if errors.Is(err, os.ErrClosed) {
			continue // a compaction moved the record: read it where it went
		}
		var env rawEnvelope
		if err == nil && json.Unmarshal(b[keyLen+1:len(b)-1], &env) == nil &&
			env.Version == schemaVersion && len(env.Result) > 0 &&
			string(env.Result) != "null" && keyOf(env.Key) == key &&
			hexSum(env.Result) == env.Sum {
			s.hotPut(key, env.Result, env.Cycles)
			s.hits.Inc()
			return env.Result, env.Cycles, at, true
		}
		s.quarantine(at)
		break
	}
	s.misses.Inc()
	return nil, 0, at, false
}

// Put stores res under key (KeyAt of the same cell), replacing any existing
// entry and evicting past the size cap.
func (s *Store) Put(key string, m KeyMaterial, res *stats.Run) error {
	if s == nil {
		return nil
	}
	keyJSON, derived := marshalKey(m)
	if derived != key {
		return s.putFailed(fmt.Errorf("key %.12s does not address the supplied material", key))
	}
	return s.put(key, keyJSON, res)
}

// PutRunAt stores res under KeyAt(cfg, benchmark, faults, fidelity).
func (s *Store) PutRunAt(cfg gpu.Config, benchmark, faults, fidelity string, res *stats.Run) error {
	if s == nil {
		return nil
	}
	keyJSON, key := marshalKey(materialAt(cfg, benchmark, faults, fidelity))
	return s.put(key, keyJSON, res)
}

// put appends res's record under key, whose material encodes as keyJSON.
func (s *Store) put(key string, keyJSON []byte, res *stats.Run) error {
	if res == nil {
		return s.putFailed(fmt.Errorf("nil result"))
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return s.putFailed(err)
	}
	rec := make([]byte, 0, keyLen+len(keyJSON)+len(resJSON)+160)
	rec = append(append(rec, key...), ' ')
	rec = append(appendEnvelope(rec, keyJSON, resJSON, res.Cycles), '\n')

	s.mu.Lock()
	g, off, err := s.appendLocked(rec)
	if err == nil {
		s.hotDrop(key) // the next raw read verifies the new record from disk
		s.indexLocked(key, g, off, int64(len(rec)))
		s.evictLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return s.putFailed(err)
	}
	s.reclaim()
	return nil
}

// appendLocked writes rec to the active segment, first starting a new one if
// rec would take it past segMax. A failed write seals it: rec is a tail.
func (s *Store) appendLocked(rec []byte) (g *segment, off int64, err error) {
	if g = s.active; g != nil && g.size > 0 && g.size+int64(len(rec)) > s.segMax {
		s.active = nil
	}
	if s.active == nil {
		if g, err = s.create(); err != nil {
			return nil, 0, err
		}
		s.active = g
		s.segs = append(s.segs, g)
	}
	g, off = s.active, s.active.size
	n, err := g.f.WriteAt(rec, off)
	g.size += int64(n)
	if err != nil {
		s.active = nil
		return nil, 0, err
	}
	return g, off, nil
}

// create makes the next segment file. Exclusive creation keeps two processes
// out of each other's segments: a name another process took is skipped.
func (s *Store) create() (*segment, error) {
	for {
		name := filepath.Join(s.dir, fmt.Sprintf("%016x%s", s.nextSeq.Add(1)-1, packExt))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			return &segment{f: f}, nil
		} else if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
}

// putFailed counts one failed write-back and wraps err.
func (s *Store) putFailed(err error) error {
	s.putErrors.Inc()
	return fmt.Errorf("store: %w", err)
}

// evictLocked kills records from the LRU end until the live bytes fit the cap.
func (s *Store) evictLocked() {
	for tail := s.lru.Back(); tail != nil && s.max > 0 && s.total > s.max; tail = s.lru.Back() {
		key := tail.Value.(*diskEntry).key
		s.unindexLocked(key)
		s.hotDrop(key)
		s.evictions.Inc()
	}
}

// reclaim deletes sealed segments with no live record and, while sealed
// segments hold more dead than live bytes, compacts the sparsest. A failed
// pass waits for the next Put.
func (s *Store) reclaim() {
	s.reclaiming.Lock()
	defer s.reclaiming.Unlock()
	for {
		var dead int64
		var g *segment
		var moving []diskEntry // g's live records, least recently used first
		s.mu.Lock()
		for _, h := range s.segs {
			if h != s.active {
				dead += h.size - h.live
				if g == nil || h.live*g.size < g.live*h.size {
					g = h
				}
			}
		}
		more := g != nil && (g.live == 0 || dead > s.total)
		for el := s.lru.Back(); more && el != nil; el = el.Prev() {
			if e := el.Value.(*diskEntry); e.seg == g {
				moving = append(moving, *e)
			}
		}
		s.mu.Unlock()
		if !more || s.compact(g, moving) != nil {
			return
		}
	}
}

// compact copies the records moving from g to a new sealed segment, holding
// mu only to point the index at the copies of those still live, and deletes
// g. A record g cannot yield is quarantined, so it never stalls reclaiming.
func (s *Store) compact(g *segment, moving []diskEntry) error {
	var buf []byte
	offs := make([]int64, len(moving)) // where each record's copy lies in buf
	for i, e := range moving {
		offs[i] = int64(len(buf))
		buf = append(buf, make([]byte, e.size)...)
		if _, err := g.f.ReadAt(buf[offs[i]:], e.off); err != nil {
			buf = buf[:offs[i]]
			s.quarantine(e)
		}
	}
	var to *segment
	if len(buf) > 0 {
		var err error
		if to, err = s.create(); err != nil {
			return err
		}
		if _, err = to.f.WriteAt(buf, 0); err != nil {
			to.f.Close()
			os.Remove(to.f.Name())
			return err
		}
		to.size = int64(len(buf))
	}
	s.mu.Lock()
	if to != nil {
		s.segs = append(s.segs, to)
	}
	for i, m := range moving {
		if e := s.entryAtLocked(m); e != nil { // not evicted, replaced or dropped meanwhile
			e.seg, e.off = to, offs[i]
			g.live -= e.size
			to.live += e.size
		}
	}
	s.segs = slices.DeleteFunc(s.segs, func(h *segment) bool { return h == g })
	s.mu.Unlock()
	g.f.Close() // a reader still holding g's location retries at the copy's
	os.Remove(g.f.Name())
	return nil
}

// entryAtLocked returns at.key's index entry if it still points at at.
func (s *Store) entryAtLocked(at diskEntry) *diskEntry {
	if el, ok := s.idx[at.key]; ok {
		if e := el.Value.(*diskEntry); e.seg == at.seg && e.off == at.off {
			return e
		}
	}
	return nil
}

// quarantine counts the record at, which failed a read or a check, and drops
// it if the index still points at it: a record a concurrent Put has just
// written for the key stays.
func (s *Store) quarantine(at diskEntry) {
	s.mu.Lock()
	if s.entryAtLocked(at) != nil {
		s.unindexLocked(at.key)
		s.hotDrop(at.key)
	}
	s.mu.Unlock()
	s.corrupt.Inc()
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// SizeBytes returns the live record bytes currently indexed.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Hits returns the number of Get calls served from disk.
func (s *Store) Hits() int64 { return int64(s.hits.Value()) }

// Misses returns the number of Get calls that found nothing usable.
func (s *Store) Misses() int64 { return int64(s.misses.Value()) }

// Evictions returns the number of objects evicted by the LRU cap since Open.
func (s *Store) Evictions() int64 { return int64(s.evictions.Value()) }

// PutErrors returns the number of failed Put calls since Open.
func (s *Store) PutErrors() int64 { return int64(s.putErrors.Value()) }

// Corrupt returns the number of torn, damaged or unverifiable records since Open.
func (s *Store) Corrupt() int64 { return int64(s.corrupt.Value()) }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the segments and writes the recency snapshot (every key, least
// recently used first) the next Open lays over its scan. Do not use the store
// after Close.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.reclaiming.Lock()
	defer s.reclaiming.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, g := range s.segs {
		err = errors.Join(err, g.f.Close())
	}
	keys := make([]string, 0, len(s.idx))
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*diskEntry).key)
	}
	b, _ := json.Marshal(keys) // a []string always encodes
	// Through a temp file, so the next Open reads a whole snapshot or none.
	tmp, terr := os.CreateTemp(s.dir, "index-*.tmp")
	if terr == nil {
		_, terr = tmp.Write(b)
		terr = errors.Join(terr, tmp.Close())
		if terr == nil {
			terr = os.Rename(tmp.Name(), s.indexPath())
		}
		if terr != nil {
			os.Remove(tmp.Name())
		}
	}
	if err = errors.Join(err, terr); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
