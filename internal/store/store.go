// Package store is a content-addressed, on-disk cache of simulation
// results. Each entry is one completed *stats.Run keyed by a canonical
// SHA-256 hash of the full simulation identity — configuration (which
// includes the LLC organization), workload name, and fault-plan fingerprint
// — so a result written by one process (an offline sacsweep, the sacd
// daemon) is a warm hit for every later process given the same cell.
//
// Durability model: objects are written to a temp file in the store
// directory and renamed into place, so a reader never observes a torn
// write. Every object embeds a SHA-256 of its result payload, verified on
// Get: bit rot, a torn write that still parses, or a hand-edited file is
// caught before it deserializes into plausible garbage. A corrupt or
// mismatched object is quarantined (renamed to .corrupt, preserved for
// forensics), counted, and reported as a miss.
//
// The index (sizes + recency for the LRU cap) lives in memory; committing a
// result costs the same whether the store holds ten objects or a million.
// index.json is a clean-shutdown snapshot: Close writes it, the next Open
// loads it and removes it. A process that dies before Close therefore
// leaves no snapshot, and Open falls back to scanning the object directory,
// taking sizes from the files and recency from their mtimes (oldest = least
// recent) — the same story the journal's clean-shutdown mark tells. What a
// crash loses is only recency finer than mtime: reads since the last write
// of an object do not count toward its age. It never loses an object, a
// size, or correctness. Open also removes object-*.tmp / index-*.tmp files a
// crash left between create and rename.
//
// The store is safe for concurrent use by multiple goroutines of one
// process; concurrent processes sharing a directory stay correct (atomic
// renames, every read verified) but may double-simulate on a racing miss,
// account only the objects they know of against MaxBytes, and can lose one
// write-back (counted, never served wrong) when another process's Open
// sweeps its in-flight temp file.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// schemaVersion is baked into every cache key: bump it when the meaning of
// a stored result changes (simulator semantics, stats layout, envelope
// integrity fields), so stale entries become unreachable instead of wrong.
// v2 added the content hash (envelope.Sum); v1 objects are simply never
// addressed again and age out through LRU eviction.
const schemaVersion = 2

// KeyMaterial is the canonical identity of one simulation. Hashing its
// deterministic JSON encoding (json.Marshal's bytes, appended by hand) yields
// the cache key.
type KeyMaterial struct {
	Schema    int        `json:"schema"`
	Config    gpu.Config `json:"config"`
	Benchmark string     `json:"benchmark"`
	Faults    string     `json:"faults,omitempty"`
	// Fidelity is the backend rung that produced the result ("estimate",
	// "sampled"; "" = cycle-exact). It is part of the identity so results
	// from different rungs can never alias: an estimate must never be
	// served for an exact request. Empty (exact) omits the field entirely,
	// keeping every pre-ladder exact key — and therefore every existing
	// store object — addressable without a schema bump.
	Fidelity string `json:"fidelity,omitempty"`
}

// KeyAt returns the content address of one simulation cell: a hex SHA-256
// of the canonical (config, workload, fault plan, fidelity rung) encoding.
// faults is the fault-plan fingerprint from fault.Plan.Key ("" = healthy).
// "" and "exact" address the same (legacy) exact keys; other rungs get
// distinct addresses.
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

// rawEnvelope is the on-disk object layout. The key material is stored next
// to the result so loads can verify the object against its address and so
// the files are self-describing for debugging. The result payload stays raw
// bytes: envelopeBytes embeds the canonical json.Marshal of the result
// verbatim, so the RawMessage here is exactly the bytes Sum was computed
// over and the content hash verifies without ever decoding the run.
type rawEnvelope struct {
	Version int         `json:"version"`
	Key     KeyMaterial `json:"key"`
	// Sum is the hex SHA-256 of the canonical Result JSON, written at Put
	// and verified at Get so corruption is caught rather than served.
	Sum string `json:"sum"`
	// Cycles mirrors Result.Cycles so raw reads can report the headline
	// counter without parsing the payload. Absent on pre-PR10 objects
	// (GetRaw falls back to a partial decode); not covered by Sum, so a
	// wrong value here can mislabel a status but never corrupt a result.
	Cycles int64           `json:"cycles"`
	Result json.RawMessage `json:"result"`
}

// envelopeBytes builds one object from the already-canonical key and result
// encodings. The layout is what encoding/json produces for rawEnvelope's
// fields with the result inline (cycles omitted when zero), pinned byte for
// byte by TestObjectBytesGolden against the struct encoding and a golden
// file, so objects written before and after the splice are interchangeable.
func envelopeBytes(keyJSON, resJSON []byte, cycles int64) []byte {
	sum := sha256.Sum256(resJSON)
	b := make([]byte, 0, len(keyJSON)+len(resJSON)+160)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, schemaVersion, 10)
	b = append(b, `,"key":`...)
	b = append(b, keyJSON...)
	b = append(b, `,"sum":"`...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, '"')
	if cycles != 0 {
		b = append(b, `,"cycles":`...)
		b = strconv.AppendInt(b, cycles, 10)
	}
	b = append(b, `,"result":`...)
	b = append(b, resJSON...)
	return append(b, '}')
}

// Options tune a Store.
type Options struct {
	// MaxBytes caps the total object bytes; the least-recently-used entries
	// are evicted when a Put exceeds it. 0 means unbounded.
	MaxBytes int64
	// Registry receives the store's traffic counters —
	// sacd_store_hits_total, sacd_store_misses_total,
	// sacd_store_evictions_total, sacd_store_put_errors_total and
	// sacd_store_corrupt_total — so warm-tier effectiveness, failing
	// write-backs and a decaying disk show on /metrics. Nil keeps them in a
	// registry of the store's own; the Go accessors read them either way.
	Registry *obs.Registry
}

// hotBytes is the in-memory tier's budget of verified result bytes: big
// enough to hold thousands of estimate results, small next to a
// simulation's working set.
const hotBytes = 64 << 20

// indexEntry is the per-object record of the index.json snapshot.
type indexEntry struct {
	Size int64 `json:"size"`
	Used int64 `json:"used"` // recency rank; higher = more recent
}

// indexFile is the index.json snapshot layout.
type indexFile struct {
	Clock   int64                 `json:"clock"`
	Entries map[string]indexEntry `json:"entries"`
}

// diskEntry is one indexed object; it is the Value of an element of
// Store.lru.
type diskEntry struct {
	key  string
	size int64
}

// Store is an open result cache rooted at one directory.
type Store struct {
	dir string
	max int64

	mu    sync.Mutex
	idx   map[string]*list.Element // key → element whose Value is *diskEntry
	lru   *list.List               // front = most recently used
	total int64

	// Hot tier: verified result bytes kept in memory so repeat raw reads of
	// a key cost a map lookup instead of a file read plus SHA-256. Entries
	// are immutable once inserted (callers must treat the returned
	// RawMessage as read-only, which every server path does — the bytes go
	// straight to the wire). Guarded by its own mutex, taken after mu where
	// both are held.
	hotMu   sync.Mutex
	hot     map[string]*list.Element // key → element whose Value is *hotEntry
	hotLRU  *list.List               // front = most recently used
	hotSize int64
	hotMax  int64 // hotBytes; tests shrink it

	hits, misses, evictions, putErrors, corrupt *obs.Metric
}

// Open opens (creating if necessary) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		dir: dir, max: opts.MaxBytes,
		hot: make(map[string]*list.Element), hotLRU: list.New(), hotMax: hotBytes,
		hits:      reg.Counter("sacd_store_hits_total", "Store reads served from disk."),
		misses:    reg.Counter("sacd_store_misses_total", "Store reads that found nothing usable."),
		evictions: reg.Counter("sacd_store_evictions_total", "Objects evicted by the LRU size cap."),
		putErrors: reg.Counter("sacd_store_put_errors_total", "Result write-backs that failed."),
		corrupt: reg.Counter("sacd_store_corrupt_total",
			"Store objects quarantined for failing content-hash verification."),
	}
	// Temp files a crash left between create and rename: never addressable,
	// never counted against MaxBytes, so nothing else would ever reclaim them.
	for _, pat := range []string{"object-*.tmp", "index-*.tmp"} {
		orphans, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, o := range orphans {
			os.Remove(o)
		}
	}
	if err := s.loadIndex(); err != nil {
		// No snapshot (first open, or the last process died before Close) or
		// an unusable one: rebuild from the objects on disk.
		s.rebuildIndex()
	}
	return s, nil
}

// objectPath shards objects by the first byte of the hash to keep
// directories small.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// loadIndex consumes the clean-shutdown snapshot: read, removed, then
// applied, so index.json exists only between a Close and the next Open and a
// crash can never leave a stale one behind. Any problem — including a
// snapshot that cannot be removed — is an error so Open falls back to the
// scan, which trusts only the objects themselves.
func (s *Store) loadIndex() error {
	b, err := os.ReadFile(s.indexPath())
	if err != nil {
		return err
	}
	if err := os.Remove(s.indexPath()); err != nil {
		return err
	}
	var f indexFile
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	recs := make([]indexRec, 0, len(f.Entries))
	for k, e := range f.Entries {
		recs = append(recs, indexRec{k, e.Size, e.Used})
	}
	s.setIndex(recs)
	return nil
}

// rebuildIndex scans the object tree and reconstitutes sizes from the files
// and recency from their mtimes, so a capped store still evicts roughly
// oldest-first after a crash.
func (s *Store) rebuildIndex() {
	var recs []indexRec
	root := filepath.Join(s.dir, "objects")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		key := strings.TrimSuffix(d.Name(), ".json")
		if len(key) != hex.EncodedLen(sha256.Size) {
			return nil // not an object Put wrote; objectPath could not address it
		}
		recs = append(recs, indexRec{key, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	s.setIndex(recs)
}

// indexRec is one object as Open learns of it: from the snapshot (age = its
// recency rank) or from the scan (age = its mtime). Larger age = more
// recently used.
type indexRec struct {
	key       string
	size, age int64
}

// setIndex replaces the in-memory index with recs, least recent first (ties
// by key, so the order is reproducible).
func (s *Store) setIndex(recs []indexRec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].age != recs[j].age {
			return recs[i].age < recs[j].age
		}
		return recs[i].key < recs[j].key
	})
	s.idx = make(map[string]*list.Element, len(recs))
	s.lru = list.New()
	s.total = 0
	for _, r := range recs {
		s.indexLocked(r.key, r.size)
	}
}

// indexLocked records key at size as the most recently used object,
// replacing any previous record of it.
func (s *Store) indexLocked(key string, size int64) {
	if el, ok := s.idx[key]; ok {
		e := el.Value.(*diskEntry)
		s.total -= e.size
		e.size = size
		s.lru.MoveToFront(el)
	} else {
		s.idx[key] = s.lru.PushFront(&diskEntry{key: key, size: size})
	}
	s.total += size
}

// unindexLocked forgets key if it is indexed.
func (s *Store) unindexLocked(key string) {
	if el, ok := s.idx[key]; ok {
		s.total -= s.lru.Remove(el).(*diskEntry).size
		delete(s.idx, key)
	}
}

// touch marks key most recently used.
func (s *Store) touch(key string) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
}

// writeAtomic writes b to path through a temp file in the store root, so a
// reader sees the old content or the new, never a torn write.
func (s *Store) writeAtomic(pattern, path string, b []byte) error {
	tmp, err := os.CreateTemp(s.dir, pattern)
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Get returns the stored result for key, or ok=false on a miss. Corrupt or
// mismatched objects — bad JSON, wrong schema, a key that does not address
// the embedded material, or a result whose SHA-256 no longer matches its
// recorded Sum — are quarantined as .corrupt files and reported as misses,
// never deserialized into a caller's hands.
func (s *Store) Get(key string) (*stats.Run, bool) {
	raw, _, ok := s.getRaw(key)
	if !ok {
		return nil, false
	}
	var run stats.Run
	if err := json.Unmarshal(raw, &run); err != nil {
		// Unreachable for objects Put wrote (the hash just verified over
		// valid JSON), but a defensive quarantine beats a panic.
		s.quarantine(key)
		s.misses.Inc()
		return nil, false
	}
	return &run, true
}

// GetRaw returns the stored result payload for key as verified raw JSON —
// the exact canonical bytes Put wrote — plus its simulated cycle count, or
// ok=false on a miss. The content hash is checked over the raw bytes (they
// are, by construction, the bytes Sum was computed over), so callers may
// serve them to the wire without a json.Unmarshal+Marshal round trip per
// warm hit. Corruption handling matches Get: bad objects are quarantined as
// .corrupt files and reported as misses.
func (s *Store) GetRaw(key string) (json.RawMessage, int64, bool) {
	return s.getRaw(key)
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

// hotPut inserts (or refreshes) key's verified bytes, evicting from the LRU
// tail past the byte budget. Oversized payloads are skipped rather than
// allowed to flush the whole tier.
func (s *Store) hotPut(key string, raw json.RawMessage, cycles int64) {
	if int64(len(raw)) > s.hotMax/4 {
		return
	}
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	if el, ok := s.hot[key]; ok {
		s.hotSize -= int64(len(el.Value.(*hotEntry).raw))
		s.hotLRU.Remove(el)
		delete(s.hot, key)
	}
	s.hot[key] = s.hotLRU.PushFront(&hotEntry{key: key, raw: raw, cycles: cycles})
	s.hotSize += int64(len(raw))
	for s.hotSize > s.hotMax {
		tail := s.hotLRU.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*hotEntry)
		s.hotLRU.Remove(tail)
		delete(s.hot, e.key)
		s.hotSize -= int64(len(e.raw))
	}
}

// hotDrop forgets key's resident bytes (quarantine, disk eviction).
func (s *Store) hotDrop(key string) {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
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

// getRaw is the shared verified read beneath Get and GetRaw.
func (s *Store) getRaw(key string) (json.RawMessage, int64, bool) {
	if s == nil {
		return nil, 0, false
	}
	if raw, cycles, ok := s.hotGet(key); ok {
		s.touch(key)
		s.hits.Inc()
		return raw, cycles, true
	}
	path := s.objectPath(key)
	b, err := os.ReadFile(path)
	if err != nil {
		s.misses.Inc()
		return nil, 0, false
	}
	var env rawEnvelope
	if err := json.Unmarshal(b, &env); err != nil ||
		env.Version != schemaVersion || len(env.Result) == 0 ||
		string(env.Result) == "null" || keyOf(env.Key) != key {
		s.quarantine(key)
		s.misses.Inc()
		return nil, 0, false
	}
	if hexSum(env.Result) != env.Sum {
		// The payload parsed but its content hash does not check out:
		// bit rot or tampering that would otherwise be served as a
		// plausible-looking result.
		s.quarantine(key)
		s.misses.Inc()
		return nil, 0, false
	}
	if env.Cycles == 0 {
		// Pre-PR10 object without the mirrored counter: one partial decode
		// (no kernel records or counter tree allocated) recovers it.
		var c struct{ Cycles int64 }
		_ = json.Unmarshal(env.Result, &c)
		env.Cycles = c.Cycles
	}
	s.touch(key)
	s.hotPut(key, env.Result, env.Cycles)
	s.hits.Inc()
	return env.Result, env.Cycles, true
}

// Put stores res under key (as derived by KeyAt from the same cell identity).
// The write is atomic; an existing entry is replaced. Exceeding the size
// cap evicts least-recently-used entries. The cost does not depend on how
// many objects the store holds.
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

// PutRunAt derives the key from the cell identity, as KeyAt does, and
// stores res under it.
func (s *Store) PutRunAt(cfg gpu.Config, benchmark, faults, fidelity string, res *stats.Run) error {
	if s == nil {
		return nil
	}
	keyJSON, key := marshalKey(materialAt(cfg, benchmark, faults, fidelity))
	return s.put(key, keyJSON, res)
}

// put commits res under key, whose canonical material encoding is keyJSON.
func (s *Store) put(key string, keyJSON []byte, res *stats.Run) error {
	if res == nil {
		return s.putFailed(fmt.Errorf("nil result"))
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return s.putFailed(err)
	}
	b := envelopeBytes(keyJSON, resJSON, res.Cycles)
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return s.putFailed(err)
	}
	if err := s.writeAtomic("object-*.tmp", path, b); err != nil {
		return s.putFailed(err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; ok {
		// Drop any resident bytes for the replaced object; the next raw read
		// re-verifies from disk and repopulates.
		s.hotDrop(key)
	}
	s.indexLocked(key, int64(len(b)))
	s.evictLocked()
	return nil
}

// putFailed counts one failed write-back and returns err in the package's
// error form.
func (s *Store) putFailed(err error) error {
	s.putErrors.Inc()
	return fmt.Errorf("store: %w", err)
}

// evictLocked removes entries from the least-recently-used end until under
// the cap.
func (s *Store) evictLocked() {
	for tail := s.lru.Back(); tail != nil && s.max > 0 && s.total > s.max; tail = s.lru.Back() {
		key := tail.Value.(*diskEntry).key
		os.Remove(s.objectPath(key))
		s.unindexLocked(key)
		s.hotDrop(key)
		s.evictions.Inc()
	}
}

// quarantine sidelines one corrupt object: renamed to <object>.corrupt so
// the evidence survives for forensics (rebuildIndex and Get both ignore
// the suffix), dropped from the index so the slot heals, and counted.
func (s *Store) quarantine(key string) {
	s.hotDrop(key)
	path := s.objectPath(key)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Rename failed (exotic filesystem, permissions): fall back to
		// removal — a corrupt object must never stay addressable.
		os.Remove(path)
	}
	s.mu.Lock()
	s.unindexLocked(key)
	s.mu.Unlock()
	s.corrupt.Inc()
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// SizeBytes returns the total object bytes currently indexed.
func (s *Store) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Hits returns the number of Get calls served from disk.
func (s *Store) Hits() int64 { return int64(s.hits.Value()) }

// Misses returns the number of Get calls that found nothing usable.
func (s *Store) Misses() int64 { return int64(s.misses.Value()) }

// Evictions returns the number of objects evicted by the LRU cap since Open.
func (s *Store) Evictions() int64 {
	if s == nil {
		return 0
	}
	return int64(s.evictions.Value())
}

// PutErrors returns the number of failed Put calls since Open.
func (s *Store) PutErrors() int64 {
	if s == nil {
		return 0
	}
	return int64(s.putErrors.Value())
}

// Corrupt returns the number of objects quarantined by Get since Open.
func (s *Store) Corrupt() int64 {
	if s == nil {
		return 0
	}
	return int64(s.corrupt.Value())
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close writes the index snapshot the next Open starts warm from: every
// size, and recency as a rank (1 = least recently used). Without it — a
// failed write, or a process that never reaches Close — the next Open scans
// the object directory instead. The store must not be used after Close.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := indexFile{Entries: make(map[string]indexEntry, len(s.idx))}
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*diskEntry)
		f.Clock++
		f.Entries[e.key] = indexEntry{Size: e.size, Used: f.Clock}
	}
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("store: index snapshot: %w", err)
	}
	if err := s.writeAtomic("index-*.tmp", s.indexPath(), b); err != nil {
		return fmt.Errorf("store: index snapshot: %w", err)
	}
	return nil
}
