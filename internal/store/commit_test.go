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
	"time"

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

// onDisk reports whether key's object file exists, without the recency bump
// a Get would apply.
func onDisk(s *Store, key string) bool {
	_, err := os.Stat(s.objectPath(key))
	return err == nil
}

// TestObjectBytesGolden pins the on-disk layout across the single-marshal
// Put: the object is byte-identical to one the previous commit's Put wrote
// for the same run (testdata golden, captured from that commit) and to the
// reference struct encoding, with and without the omitted-when-zero cycles
// field.
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
		got, err := os.ReadFile(s.objectPath(KeyAt(cfg, "BP", "", "")))
		if err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("object differs from the golden written by the previous Put — existing caches would go cold or unverifiable:\n got %s\nwant %s", got, want)
		}
	}
}

// TestUncleanShutdownRebuilds is the crash contract: a store that is never
// closed loses nothing but fine-grained recency. The next Open scans the
// objects, sees every one at its size, and evicts oldest-mtime-first.
func TestUncleanShutdownRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	keys := make([]string, n)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = putCell(t, s, i)
		// Spread the mtimes a real sweep's wall clock would: cell 7 is the
		// oldest, then 0, 1, 2, ... in write order.
		mt := base.Add(time.Duration(i) * time.Second)
		if i == 7 {
			mt = base.Add(-time.Minute)
		}
		if err := os.Chtimes(s.objectPath(keys[i]), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	size := s.SizeBytes()
	// No Close: the process "dies" here.

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != n || s2.SizeBytes() != size {
		t.Fatalf("after unclean shutdown: Len=%d SizeBytes=%d, want %d/%d", s2.Len(), s2.SizeBytes(), n, size)
	}
	for i, k := range keys {
		if got, ok := s2.Get(k); !ok || got.Cycles != int64(100+i) {
			t.Fatalf("cell %d unreadable after unclean shutdown", i)
		}
	}
	// s2 is abandoned too, so its read bumps die with it.

	capped, err := Open(dir, Options{MaxBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	for round, victim := range []int{7, 0, 1} {
		putCell(t, capped, n+round)
		if onDisk(capped, keys[victim]) {
			t.Fatalf("round %d: cell %d (oldest mtime) survived eviction", round, victim)
		}
	}
	if capped.Len() != n || capped.Evictions() != 3 {
		t.Fatalf("capped reopen: Len=%d Evictions=%d, want %d/3", capped.Len(), capped.Evictions(), n)
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

// TestParentIndexOpensWarm feeds Open an index.json in the layout the
// per-Put index rewrite produced (clock + per-key size/used, written here as
// the literal text): it must load with sizes and recency intact, not fall
// back to the scan.
func TestParentIndexOpensWarm(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys [3]string
	var sizes [3]int64
	for i := range keys {
		keys[i] = putCell(t, s, i)
		info, err := os.Stat(s.objectPath(keys[i]))
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = info.Size()
	}
	// Recency as the old clock recorded it: cell 1 least recent, then 2,
	// then 0 — not the write (mtime) order a scan would recover.
	idx := fmt.Sprintf(`{"clock":9,"entries":{%q:{"size":%d,"used":9},%q:{"size":%d,"used":2},%q:{"size":%d,"used":5}}}`,
		keys[0], sizes[0], keys[1], sizes[1], keys[2], sizes[2])
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(idx), 0o644); err != nil {
		t.Fatal(err)
	}

	total := sizes[0] + sizes[1] + sizes[2]
	warm, err := Open(dir, Options{MaxBytes: total})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() != 3 || warm.SizeBytes() != total {
		t.Fatalf("parent index: Len=%d SizeBytes=%d, want 3/%d", warm.Len(), warm.SizeBytes(), total)
	}
	for round, victim := range []int{1, 2, 0} {
		putCell(t, warm, 10+round)
		if onDisk(warm, keys[victim]) {
			t.Fatalf("round %d: cell %d survived; recency from the parent index was not honoured", round, victim)
		}
	}
}

// TestEvictionHonoursReadBumps checks that reads move an object to the
// recent end of the eviction order through both read paths (Get from disk,
// GetRaw from the hot tier), and that the order survives a clean
// Close/Open.
func TestEvictionHonoursReadBumps(t *testing.T) {
	dir := t.TempDir()
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putCell(t, probe, 0)
	objSize := probe.SizeBytes()
	probe.quarantine(KeyAt(cellConfig(0), "BP", "", ""))

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
	if onDisk(s, c) || !onDisk(s, a) || !onDisk(s, b) {
		t.Fatal("eviction ignored read bumps: want c evicted, a and b kept")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := putCell(t, s2, 5)
	if onDisk(s2, a) {
		t.Fatal("recency lost across a clean Close/Open: a (least recent) survived")
	}
	for name, k := range map[string]string{"b": b, "d": d, "e": e} {
		if !onDisk(s2, k) {
			t.Fatalf("%s evicted out of order after reopen", name)
		}
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

// TestOpenRemovesOrphanTemps plants the temp files a crash between
// CreateTemp and Rename leaves behind; Open must reclaim both kinds and
// nothing else.
func TestOpenRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := putCell(t, s, 0)
	orphans := []string{"object-123456.tmp", "index-987654.tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived Open", name)
		}
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("Open's temp sweep took a real object with it")
	}
}

// TestConcurrentPutGetEvict drives the index from several goroutines at
// once — overlapping Puts, disk and hot-tier reads, and eviction under a
// tight cap — then checks the books still balance. Run under -race.
func TestConcurrentPutGetEvict(t *testing.T) {
	probe, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	putCell(t, probe, 0)
	objSize := probe.SizeBytes()

	s, err := Open(t.TempDir(), Options{MaxBytes: objSize * 8})
	if err != nil {
		t.Fatal(err)
	}
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
	if s.lru.Len() != len(s.idx) {
		t.Fatalf("recency list holds %d entries, index %d", s.lru.Len(), len(s.idx))
	}
	var sum int64
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*diskEntry)
		if s.idx[e.key] != el {
			t.Fatalf("index does not point at %s's list element", e.key)
		}
		sum += e.size
	}
	if sum != s.total || s.total > s.max {
		t.Fatalf("total=%d, entries sum to %d, cap %d", s.total, sum, s.max)
	}
}
