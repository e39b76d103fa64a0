package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from the reference encoder")

// envelope is the reference encoder for on-disk objects: the struct the
// store marshalled (result included, so it was encoded twice per Put) before
// envelopeBytes spliced the canonical encodings together.
type envelope struct {
	Version int         `json:"version"`
	Key     KeyMaterial `json:"key"`
	Sum     string      `json:"sum"`
	Cycles  int64       `json:"cycles,omitempty"`
	Result  *stats.Run  `json:"result"`
}

func referenceObject(t *testing.T, m KeyMaterial, res *stats.Run) []byte {
	t.Helper()
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(envelope{Version: schemaVersion, Key: m, Sum: hexSum(rb), Cycles: res.Cycles, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cellConfig returns the i-th of a family of distinct cell identities.
func cellConfig(i int) gpu.Config {
	cfg := testConfig()
	cfg.MaxCycles = int64(1000 + i)
	return cfg
}

func putCell(t *testing.T, s *Store, i int) string {
	t.Helper()
	if err := s.PutRunAt(cellConfig(i), "BP", "", "", testRun("BP", int64(100+i))); err != nil {
		t.Fatal(err)
	}
	return KeyAt(cellConfig(i), "BP", "", "")
}

// indexed reports whether key has a live record, without the recency bump
// a Get would apply.
func indexed(s *Store, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[key]
	return ok
}

// locate returns where key's record lies, without a recency bump.
func locate(t testing.TB, s *Store, key string) diskEntry {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.idx[key]
	if !ok {
		t.Fatalf("key %.12s is not indexed", key)
	}
	return *el.Value.(*diskEntry)
}

// envelopeOf reads key's envelope bytes straight from its segment, unverified.
func envelopeOf(t testing.TB, s *Store, key string) []byte {
	t.Helper()
	at := locate(t, s, key)
	b := make([]byte, at.size)
	if _, err := at.seg.f.ReadAt(b, at.off); err != nil {
		t.Fatal(err)
	}
	if string(b[:keyLen+1]) != key+" " || b[len(b)-1] != '\n' {
		t.Fatalf("record of %.12s is not framed as key, space, envelope, newline: %q", key, b)
	}
	return b[keyLen+1 : len(b)-1]
}

// tamper replaces old with new (same length) inside key's record on disk,
// behind the store's back.
func tamper(t testing.TB, s *Store, key, old, new string) {
	t.Helper()
	at := locate(t, s, key)
	env := envelopeOf(t, s, key)
	i := bytes.Index(env, []byte(old))
	if i < 0 || len(old) != len(new) {
		t.Fatalf("test setup: %q not found in the record of %.12s", old, key)
	}
	f, err := os.OpenFile(at.seg.f.Name(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte(new), at.off+keyLen+1+int64(i)); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles lists dir's segments in sequence order.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+packExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// plantSegment writes b as a new segment of dir, after every existing one.
func plantSegment(t testing.TB, dir string, b []byte) {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("%016x%s", uint64(len(segmentFiles(t, dir))+1)<<40, packExt))
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// abandon releases s's files the way a dying process does: no snapshot.
func abandon(s *Store) {
	for _, g := range s.segs {
		g.f.Close()
	}
}

// TestObjectBytesGolden pins the stored object bytes: a record's envelope is
// byte-identical to the reference struct encoding, with and without the
// omitted-when-zero cycles field, and to the golden file captured when
// objects were one file each — so the envelope never moved with the layout.
func TestObjectBytesGolden(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	for _, cycles := range []int64{12345, 0} {
		run := testRun("BP", cycles)
		if err := s.PutRunAt(cfg, "BP", "", "", run); err != nil {
			t.Fatal(err)
		}
		got := envelopeOf(t, s, KeyAt(cfg, "BP", "", ""))
		if want := referenceObject(t, materialAt(cfg, "BP", "", ""), run); !bytes.Equal(got, want) {
			t.Fatalf("cycles=%d: object differs from the reference encoding:\n got %s\nwant %s", cycles, got, want)
		}
		if cycles == 0 {
			continue
		}
		golden := filepath.Join("testdata", "object_bp_12345.golden.json")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object differs from the golden — existing records would go unverifiable:\n got %s\nwant %s", got, want)
		}
	}
}

// TestUncleanShutdownRebuilds is the crash contract: a store that is never
// closed loses nothing but read recency. The next Open scans the segments,
// sees every object at its size, and evicts in write order, a rewritten
// object counting from its last write.
func TestUncleanShutdownRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	keys := make([]string, n)
	for i := range keys {
		keys[i] = putCell(t, s, i)
	}
	putCell(t, s, 0) // rewritten: now the most recent write
	size := s.SizeBytes()
	abandon(s) // the process "dies" here

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != n || s2.SizeBytes() != size || s2.Corrupt() != 0 {
		t.Fatalf("after unclean shutdown: Len=%d SizeBytes=%d Corrupt=%d, want %d/%d/0",
			s2.Len(), s2.SizeBytes(), s2.Corrupt(), n, size)
	}
	for i, k := range keys {
		if got, ok := s2.Get(k); !ok || got.Cycles != int64(100+i) {
			t.Fatalf("cell %d unreadable after unclean shutdown", i)
		}
	}
	abandon(s2) // its read bumps die with it

	capped, err := Open(dir, Options{MaxBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	for round, victim := range []int{1, 2, 3} {
		putCell(t, capped, n+round)
		if indexed(capped, keys[victim]) {
			t.Fatalf("round %d: cell %d (oldest write) survived eviction", round, victim)
		}
	}
	if !indexed(capped, keys[0]) || capped.Len() != n || capped.Evictions() != 3 {
		t.Fatalf("capped reopen: cell 0 kept=%v Len=%d Evictions=%d, want true/%d/3",
			indexed(capped, keys[0]), capped.Len(), capped.Evictions(), n)
	}
}

// TestTornTailEveryOffset cuts a segment at every byte of its last record,
// as a crash mid-append can, and reopens it: exactly the complete records
// are indexed, the torn one is counted, misses and is never served, and the
// next Put of its key heals it.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{putCell(t, s, 0), putCell(t, s, 1), putCell(t, s, 2)}
	last := locate(t, s, keys[2])
	abandon(s)
	seg := segmentFiles(t, dir)
	if len(seg) != 1 {
		t.Fatalf("test setup: %d segments, want 1", len(seg))
	}
	full, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	if last.off+last.size != int64(len(full)) {
		t.Fatal("test setup: the last record does not end the segment")
	}
	for cut := last.off; cut < last.off+last.size; cut++ {
		for _, extra := range segmentFiles(t, dir) {
			os.Remove(extra)
		}
		if err := os.WriteFile(seg[0], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		torn := int64(0)
		if cut > last.off {
			torn = 1
		}
		if s.Len() != 2 || s.Corrupt() != torn {
			t.Fatalf("cut at %d: Len=%d Corrupt=%d, want 2/%d", cut, s.Len(), s.Corrupt(), torn)
		}
		for _, k := range keys[:2] {
			if _, _, ok := s.GetRaw(k); !ok {
				t.Fatalf("cut at %d: a complete record missed", cut)
			}
		}
		if _, _, ok := s.GetRaw(keys[2]); ok {
			t.Fatalf("cut at %d: the torn record was served", cut)
		}
		putCell(t, s, 2)
		if got, ok := s.Get(keys[2]); !ok || got.Cycles != 102 {
			t.Fatalf("cut at %d: the torn key did not heal on Put", cut)
		}
		abandon(s)
	}
}

// TestIndexSnapshotLifecycle pins when index.json exists: only between a
// Close and the next Open. While a store is open there is neither a
// snapshot nor an index temp file, so a crash cannot leave a stale one.
func TestIndexSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	indexFiles := func() []string {
		a, _ := filepath.Glob(filepath.Join(dir, "index*"))
		return a
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		putCell(t, s, i)
		if got := indexFiles(); len(got) != 0 {
			t.Fatalf("index files while open after Put %d: %v", i, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := indexFiles(); len(got) != 1 || filepath.Base(got[0]) != "index.json" {
		t.Fatalf("after Close: %v, want exactly index.json", got)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := indexFiles(); len(got) != 0 {
		t.Fatalf("snapshot not consumed by Open: %v", got)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len=%d after a snapshot open, want 3", s2.Len())
	}
}

// TestOpenCreatesNoFile pins the lazy segment: opening a store, even reading
// from it, creates nothing; the first Put creates one segment.
func TestOpenCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.GetRaw(KeyAt(testConfig(), "BP", "", ""))
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Open and a miss created %d files", len(entries))
	}
	putCell(t, s, 0)
	putCell(t, s, 1)
	if got := segmentFiles(t, dir); len(got) != 1 {
		t.Fatalf("two Puts left %d segments, want 1", len(got))
	}
}

// TestEvictionHonoursReadBumps checks that reads move an object to the
// recent end of the eviction order through both read paths (Get from disk,
// GetRaw from the hot tier), and that the order survives a clean
// Close/Open.
func TestEvictionHonoursReadBumps(t *testing.T) {
	dir := t.TempDir()
	objSize := recordSize(t)
	opts := Options{MaxBytes: objSize*3 + objSize/2}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := putCell(t, s, 1), putCell(t, s, 2), putCell(t, s, 3)
	if _, ok := s.Get(a); !ok {
		t.Fatal("a missed")
	}
	for i := 0; i < 2; i++ { // second read is a hot-tier hit
		if _, _, ok := s.GetRaw(b); !ok {
			t.Fatal("b missed")
		}
	}
	// Least → most recent is now c, a, b.
	d := putCell(t, s, 4)
	if indexed(s, c) || !indexed(s, a) || !indexed(s, b) {
		t.Fatal("eviction ignored read bumps: want c evicted, a and b kept")
	}
	if _, ok := s.Get(a); !ok { // b, d, a: no longer write order
		t.Fatal("a missed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := putCell(t, s2, 5)
	if indexed(s2, b) {
		t.Fatal("recency lost across a clean Close/Open: b (least recent) survived")
	}
	for name, k := range map[string]string{"a": a, "d": d, "e": e} {
		if !indexed(s2, k) {
			t.Fatalf("%s evicted out of order after reopen", name)
		}
	}
}

// recordSize returns the bytes one putCell record takes, measured in a
// scratch store.
func recordSize(t *testing.T) int64 {
	t.Helper()
	probe, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	putCell(t, probe, 0)
	return probe.SizeBytes()
}

// TestDiskBoundedUnderCap streams new cells through a capped store while
// reading every fifth cell of the last 150 after each Put, so eviction
// takes the other four and leaves each sealed segment sparse, not empty:
// the case only compaction reclaims. After every Put, live bytes stay within
// MaxBytes and the segments within 2×MaxBytes plus one segment, the bound
// the package states. Every live record still reads back, before and after a
// reopen.
func TestDiskBoundedUnderCap(t *testing.T) {
	dir := t.TempDir()
	limit := recordSize(t) * 40
	s, err := Open(dir, Options{MaxBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	var moved string // segment of cell 100's only record, until compaction moves it
	for c := 0; c < 300; c++ {
		putCell(t, s, c)
		if c == 100 || c == 240 { // cell 100 is read, so live, up to put 250
			at := locate(t, s, KeyAt(cellConfig(100), "BP", "", "")).seg.f.Name()
			if c == 100 {
				moved = at
			} else if at == moved {
				t.Fatal("no compaction: cell 100's record is still where it was written")
			}
		}
		for k := (max(0, c-150) + 4) / 5 * 5; k <= c; k += 5 {
			if _, _, ok := s.GetRaw(KeyAt(cellConfig(k), "BP", "", "")); !ok && c-k < 50 {
				t.Fatalf("after put %d: recently read cell %d evicted", c, k)
			}
		}
		var disk int64
		for _, name := range segmentFiles(t, dir) {
			info, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			disk += info.Size()
		}
		if s.SizeBytes() > limit || disk > 2*limit+s.segMax {
			t.Fatalf("put %d: live %d bytes, disk %d bytes; bounds %d and %d",
				c, s.SizeBytes(), disk, limit, 2*limit+s.segMax)
		}
	}
	if s.Evictions() == 0 {
		t.Fatal("the test evicted nothing")
	}
	live := map[string]int64{}
	for i := 0; i < 300; i++ {
		if k := KeyAt(cellConfig(i), "BP", "", ""); indexed(s, k) {
			live[k] = int64(100 + i)
		}
	}
	for k, cycles := range live {
		if got, ok := s.Get(k); !ok || got.Cycles != cycles {
			t.Fatalf("live record %.12s lost or wrong after compaction", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{MaxBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	// Records evicted but not yet reclaimed come back with the scan, behind
	// every live one, as far as the cap allows.
	if s2.Len() < len(live) || s2.SizeBytes() > limit || s2.Corrupt() != 0 {
		t.Fatalf("reopen: Len=%d SizeBytes=%d Corrupt=%d, want ≥ %d, ≤ %d, 0",
			s2.Len(), s2.SizeBytes(), s2.Corrupt(), len(live), limit)
	}
	for k, cycles := range live {
		if got, ok := s2.Get(k); !ok || got.Cycles != cycles {
			t.Fatalf("live record %.12s lost or wrong after reopen", k)
		}
	}
}

// TestFailedAppendSealsSegment: a write that fails leaves its segment
// sealed, with whatever reached it as a tail nobody appends after, and the
// next Put starts a fresh segment instead of failing forever.
func TestFailedAppendSealsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putCell(t, s, 0)
	s.active.f.Close() // the disk goes away under the open segment
	if err := s.PutRunAt(cellConfig(1), "BP", "", "", testRun("BP", 101)); err == nil || s.PutErrors() != 1 {
		t.Fatalf("append to a dead segment: err=%v PutErrors=%d", err, s.PutErrors())
	}
	key := putCell(t, s, 1)
	if got, ok := s.Get(key); !ok || got.Cycles != 101 {
		t.Fatal("the Put after a failed append did not land")
	}
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Fatalf("%d segments, want the sealed one and a fresh one", n)
	}
}

// TestQuarantineKeepsFreshRecord replays the quarantine race: a reader
// fails verification of record A, a concurrent Put writes the same key
// again, and only then does the reader quarantine what it read. The fresh
// record must stay indexed and be served; A is counted.
func TestQuarantineKeepsFreshRecord(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := putCell(t, s, 0)
	a := locate(t, s, key)
	tamper(t, s, key, `"Cycles":100`, `"Cycles":666`)
	putCell(t, s, 0)
	s.quarantine(a)
	if s.Corrupt() != 1 {
		t.Fatalf("Corrupt=%d, want the failed record counted", s.Corrupt())
	}
	if got, ok := s.Get(key); !ok || got.Cycles != 100 {
		t.Fatal("quarantining a stale record dropped the fresh one")
	}
}

// TestUnreadableRecordReclaimed cuts a live record off the end of its sealed
// segment behind the store's back, so reading it fails. Whether a Get or the
// compaction that would move it meets the failure first, the record is
// quarantined and the next Put still reclaims the segment; the key heals.
func TestUnreadableRecordReclaimed(t *testing.T) {
	for _, readFirst := range []bool{true, false} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 5)
		for i := range keys {
			keys[i] = putCell(t, s, i)
		}
		r := s.SizeBytes() / 5
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Under a cap of 2.5 records the reopen evicts cells 0-2, leaving the
		// sealed segment two live records (3, then 4) and three dead ones.
		s, err = Open(dir, Options{MaxBytes: 2*r + r/2})
		if err != nil {
			t.Fatal(err)
		}
		seg := segmentFiles(t, dir)[0]
		if err := os.Truncate(seg, 5*r-1); err != nil {
			t.Fatal(err)
		}
		if readFirst {
			if _, _, ok := s.GetRaw(keys[4]); ok || s.Corrupt() != 1 || indexed(s, keys[4]) {
				t.Fatalf("unreadable record: served=%v Corrupt=%d indexed=%v, want a counted drop",
					ok, s.Corrupt(), indexed(s, keys[4]))
			}
		}
		// Without the read, this Put evicts cell 3 and compaction meets cell 4.
		putCell(t, s, 5)
		if _, err := os.Stat(seg); !os.IsNotExist(err) {
			t.Fatalf("readFirst=%v: the segment holding the unreadable record was not reclaimed", readFirst)
		}
		if s.Corrupt() != 1 || indexed(s, keys[4]) {
			t.Fatalf("readFirst=%v: Corrupt=%d, cell 4 indexed=%v; want 1, false", readFirst, s.Corrupt(), indexed(s, keys[4]))
		}
		if _, _, ok := s.GetRaw(keys[3]); ok != readFirst {
			t.Fatalf("readFirst=%v: cell 3 served=%v after compaction", readFirst, ok)
		}
		putCell(t, s, 4)
		if got, ok := s.Get(keys[4]); !ok || got.Cycles != 104 {
			t.Fatalf("readFirst=%v: cell 4 did not heal on Put", readFirst)
		}
		s.Close()
	}
}

// TestPutCostIndependentOfResidents is the O(1) commit contract in its
// deterministic form: a Put into a store holding 4096 objects allocates
// within 10% of a Put into one holding 16. (Rewriting the index per Put
// allocated per resident entry.)
func TestPutCostIndependentOfResidents(t *testing.T) {
	allocs := func(resident int) float64 {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			putCell(t, s, i)
		}
		run := testRun("BP", 7)
		next := resident
		return testing.AllocsPerRun(200, func() {
			if err := s.PutRunAt(cellConfig(next), "BP", "", "", run); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := allocs(16), allocs(4096)
	if large > small*1.1 {
		t.Fatalf("Put allocates %.1f with 4096 resident objects vs %.1f with 16: commit cost grows with the store", large, small)
	}
}

// TestOpenRemovesOrphanTemps plants the temp file a crash between
// CreateTemp and Rename of the index snapshot leaves behind; Open must
// reclaim it and nothing else.
func TestOpenRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := putCell(t, s, 0)
	orphan := filepath.Join(dir, "index-987654.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan %s survived Open", orphan)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("Open's temp sweep took a real object with it")
	}
}

// TestConcurrentPutGetEvict drives the index from several goroutines at
// once — overlapping Puts, disk and hot-tier reads, and eviction and
// compaction under a tight cap — then checks the books still balance. Run
// under -race.
func TestConcurrentPutGetEvict(t *testing.T) {
	r := recordSize(t)
	s, err := Open(t.TempDir(), Options{MaxBytes: r * 8})
	if err != nil {
		t.Fatal(err)
	}
	s.segMax = 6 * r // segments of six records, so compaction copies live ones
	const workers, cells = 4, 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells*4; i++ {
				c := (i + w*5) % cells
				if err := s.PutRunAt(cellConfig(c), "BP", "", "", testRun("BP", int64(100+c))); err != nil {
					t.Error(err)
					return
				}
				k := KeyAt(cellConfig((c+w)%cells), "BP", "", "")
				s.Get(k)
				s.GetRaw(k)
			}
		}(w)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Len() != len(s.idx) || s.Corrupt() != 0 {
		t.Fatalf("recency list holds %d entries, index %d, corrupt %d", s.lru.Len(), len(s.idx), s.Corrupt())
	}
	var sum int64
	live := map[*segment]int64{}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*diskEntry)
		if s.idx[e.key] != el {
			t.Fatalf("index does not point at %s's list element", e.key)
		}
		sum += e.size
		live[e.seg] += e.size
	}
	if sum != s.total || s.total > s.max {
		t.Fatalf("total=%d, entries sum to %d, cap %d", s.total, sum, s.max)
	}
	for _, g := range s.segs {
		if g.live != live[g] {
			t.Fatalf("segment %s counts %d live bytes, its entries %d", g.f.Name(), g.live, live[g])
		}
		delete(live, g)
	}
	if len(live) != 0 {
		t.Fatalf("%d entries point into segments the store no longer holds", len(live))
	}
}
