package store

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/stats"

	"bytes"
	"fmt"
	"repro/internal/obs"
)

func testConfig() gpu.Config {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	return cfg
}

func testRun(bench string, cycles int64) *stats.Run {
	return &stats.Run{
		Benchmark: bench,
		Org:       "memory-side",
		Cycles:    cycles,
		MemOps:    cycles / 2,
		LLCHits:   100,
		LLCMisses: 17,
		Kernels:   []stats.KernelRec{{Index: 0, Name: "k0", Org: "memory-side", Cycles: cycles, MemOps: cycles / 2}},
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	cfg := testConfig()
	k1 := KeyAt(cfg, "BP", "", "")
	k2 := KeyAt(cfg, "BP", "", "")
	if k1 != k2 {
		t.Fatalf("same identity hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key is not a hex sha256: %q", k1)
	}
	// Every component of the identity must change the key.
	if KeyAt(cfg, "RN", "", "") == k1 {
		t.Error("benchmark does not affect key")
	}
	if KeyAt(cfg, "BP", "dram:0.0@100*0.5", "") == k1 {
		t.Error("fault plan does not affect key")
	}
	cfg2 := cfg
	cfg2.RingLinkBW *= 2
	if KeyAt(cfg2, "BP", "", "") == k1 {
		t.Error("config does not affect key")
	}
	org := cfg.WithOrg(gpu.ScaledConfig().Org + 1)
	if KeyAt(org, "BP", "", "") == k1 {
		t.Error("organization does not affect key")
	}
}

// TestFidelityKeysDistinct pins the fidelity ladder's store contract: the
// same cell cached at two fidelities is two distinct objects (a warm
// estimate must never answer an exact request), while "" and "exact"
// address the same legacy keys so pre-ladder caches stay warm.
func TestFidelityKeysDistinct(t *testing.T) {
	cfg := testConfig()
	exact := KeyAt(cfg, "BP", "", "exact")
	if exact != KeyAt(cfg, "BP", "", "") {
		t.Fatal(`"exact" does not address the legacy exact key; pre-ladder caches would go cold`)
	}
	est := KeyAt(cfg, "BP", "", "estimate")
	smp := KeyAt(cfg, "BP", "", "sampled")
	if est == exact || smp == exact || est == smp {
		t.Fatalf("fidelity rungs collide: exact=%.12s estimate=%.12s sampled=%.12s", exact, est, smp)
	}

	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "estimate", testRun("BP", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "sampled", testRun("BP", 200)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("same cell at two fidelities stored %d objects, want 2", s.Len())
	}
	if _, ok := s.Get(exact); ok {
		t.Fatal("fast-fidelity result answered an exact lookup")
	}
	got, ok := s.Get(est)
	if !ok {
		t.Fatal("estimate put is a miss")
	}
	if got.Cycles != 100 {
		t.Fatalf("estimate lookup returned cycles=%d, want the estimate object (100)", got.Cycles)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	want := testRun("BP", 12345)
	if err := s.PutRunAt(cfg, "BP", "", "", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KeyAt(cfg, "BP", "", ""))
	if !ok {
		t.Fatal("fresh put is a miss")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", s.Hits(), s.Misses())
	}
	if _, ok := s.Get(KeyAt(cfg, "RN", "", "")); ok {
		t.Fatal("unstored key is a hit")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses=%d, want 1", s.Misses())
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1", s2.Len())
	}
	if _, ok := s2.Get(KeyAt(cfg, "BP", "", "")); !ok {
		t.Fatal("reopened store misses a persisted entry")
	}
}

func TestCorruptObjectQuarantinedAndHeals(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	// Break the record's JSON on disk to simulate corruption.
	tamper(t, s, key, `"result":`, `"result"!`)
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt object served as a hit")
	}
	if got := reg.Counter("sacd_store_corrupt_total", "").Value(); s.Corrupt() != 1 || got != 1 {
		t.Fatalf("corruption accounting: Corrupt=%d sacd_store_corrupt_total=%v", s.Corrupt(), got)
	}
	if s.Len() != 0 {
		t.Fatalf("index still holds %d entries after healing", s.Len())
	}
	// The key is writable again, and a reopened store's scan serves the
	// healed record, not the corrupt one before it.
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("healed slot still misses")
	}
	s.Close()
	os.Remove(filepath.Join(dir, "index.json"))
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); s2.Len() != 1 || !ok || s2.Corrupt() != 0 {
		t.Fatalf("rebuilt index: Len=%d hit=%v Corrupt=%d, want 1/true/0", s2.Len(), ok, s2.Corrupt())
	}
}

func TestContentHashMismatchQuarantined(t *testing.T) {
	// A result payload silently altered on disk still parses as valid JSON
	// under the right key — only the content hash catches it.
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	tamper(t, s, key, `"Cycles":7`, `"Cycles":8`)
	if _, ok := s.Get(key); ok {
		t.Fatal("tampered result served as a hit")
	}
	if s.Corrupt() != 1 || s.Len() != 0 {
		t.Fatalf("Corrupt=%d Len=%d after tampered Get, want 1/0", s.Corrupt(), s.Len())
	}
}

func TestMismatchedObjectRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	// File the BP object under the RN address: content no longer matches it.
	rnKey := KeyAt(cfg, "RN", "", "")
	env := envelopeOf(t, s, KeyAt(cfg, "BP", "", ""))
	plantSegment(t, dir, append(append([]byte(rnKey+" "), env...), '\n'))
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(rnKey); ok || s2.Corrupt() != 1 {
		t.Fatalf("object under an address it does not hash to: hit=%v Corrupt=%d", ok, s2.Corrupt())
	}
}

func TestCorruptIndexRebuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("rebuilt index has %d entries, want 1", s2.Len())
	}
	if _, ok := s2.Get(KeyAt(cfg, "BP", "", "")); !ok {
		t.Fatal("object unreachable after index rebuild")
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	// Size one object to derive a cap that holds exactly two.
	objSize := recordSize(t)
	s, err := Open(dir, Options{MaxBytes: objSize*2 + objSize/2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"BP", "RN", "SN"} {
		if err := s.PutRunAt(cfg, b, "", "", testRun(b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d objects over the cap, want 2", s.Len())
	}
	// BP was least recently used and must be the evicted one.
	if _, ok := s.Get(KeyAt(cfg, "BP", "", "")); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, b := range []string{"RN", "SN"} {
		if _, ok := s.Get(KeyAt(cfg, b, "", "")); !ok {
			t.Fatalf("recently used %s evicted", b)
		}
	}
}

func TestGetBumpsRecency(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	objSize := recordSize(t)
	s, err := Open(dir, Options{MaxBytes: objSize*2 + objSize/2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "RN", "", "", testRun("RN", 1)); err != nil {
		t.Fatal(err)
	}
	// Touch BP so RN becomes the LRU victim.
	if _, ok := s.Get(KeyAt(cfg, "BP", "", "")); !ok {
		t.Fatal("warm entry missed")
	}
	if err := s.PutRunAt(cfg, "SN", "", "", testRun("SN", 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KeyAt(cfg, "BP", "", "")); !ok {
		t.Fatal("recently read entry evicted instead of LRU")
	}
	if _, ok := s.Get(KeyAt(cfg, "RN", "", "")); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"BP", "RN"} {
		if err := s.PutRunAt(cfg, b, "", "", testRun(b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestJSONIdentityAfterRoundTrip(t *testing.T) {
	// The daemon's byte-identity guarantee rests on JSON round trips being
	// exact for stats.Run; pin it here at the store layer.
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	want := testRun("BP", 123456789)
	if err := s.PutRunAt(cfg, "BP", "", "", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KeyAt(cfg, "BP", "", ""))
	if !ok {
		t.Fatal("miss")
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("JSON differs after round trip:\n%s\n%s", wb, gb)
	}
}

// TestObsCountersExported pins the Registry satellite: with a registry
// wired at Open, hits, misses, evictions, and failed Puts move the exported
// counters in lockstep with the Go accessors.
func TestObsCountersExported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := testConfig()
	objSize := recordSize(t) // the capped store below holds two
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{MaxBytes: objSize*2 + objSize/2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A plain file where the store directory belongs blocks the segment the
	// first Put creates (even for root): the write-back must come back as an
	// error and be counted. With the directory back, Puts succeed again.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "CFD", "", "", testRun("CFD", 1)); err == nil {
		t.Fatal("Put into a blocked segment reported success")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KeyAt(cfg, "CFD", "", "")); ok {
		t.Fatal("failed write-back came back")
	}
	for _, b := range []string{"BP", "RN", "SN"} {
		if err := s.PutRunAt(cfg, b, "", "", testRun(b, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(KeyAt(cfg, "SN", "", "")); !ok {
		t.Fatal("fresh entry missed")
	}

	want := map[string]int64{
		"sacd_store_hits_total":       s.Hits(),
		"sacd_store_misses_total":     s.Misses(),
		"sacd_store_evictions_total":  s.Evictions(),
		"sacd_store_put_errors_total": s.PutErrors(),
	}
	for name, v := range want {
		if v == 0 {
			t.Fatalf("test exercised no %s: %v", name, want)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for name, v := range want {
		if !strings.Contains(buf.String(), fmt.Sprintf("%s %d", name, v)) {
			t.Errorf("metrics missing %s %d:\n%s", name, v, buf.String())
		}
	}
}

// TestGetRawZeroCopyBytes pins the zero-copy invariant GetRaw serves under:
// the raw bytes a hit returns are exactly json.Marshal of the stored result
// (what Put embedded), so servers can relay them without a decode/re-encode
// round trip — and the cycles sidecar comes without touching them.
func TestGetRawZeroCopyBytes(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	want := testRun("BP", 12345)
	if err := s.PutRunAt(cfg, "BP", "", "", want); err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	raw, cycles, ok := s.GetRaw(key)
	if !ok {
		t.Fatal("fresh put is a GetRaw miss")
	}
	canonical, _ := json.Marshal(want)
	if !bytes.Equal(raw, canonical) {
		t.Fatalf("raw bytes are not canonical json.Marshal of the result:\n got %s\nwant %s", raw, canonical)
	}
	if cycles != want.Cycles {
		t.Fatalf("cycles sidecar %d, want %d", cycles, want.Cycles)
	}
	if s.Hits() != 1 {
		t.Fatalf("hits=%d after GetRaw, want 1", s.Hits())
	}
	if _, _, ok := s.GetRaw(KeyAt(cfg, "RN", "", "")); ok {
		t.Fatal("unstored key is a GetRaw hit")
	}
}

// TestGetRawVerifiesContentHash checks GetRaw performs the same content-hash
// verification Get does: tampered payload bytes are quarantined, not served.
func TestGetRawVerifiesContentHash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	tamper(t, s, key, `"Cycles":7`, `"Cycles":8`)
	if _, _, ok := s.GetRaw(key); ok {
		t.Fatal("tampered object served raw")
	}
	if s.Corrupt() != 1 || s.Len() != 0 {
		t.Fatalf("Corrupt=%d Len=%d after tampered GetRaw, want 1/0", s.Corrupt(), s.Len())
	}
}

// TestGetRawNilStore checks the nil receiver reads as a miss, matching the
// rest of the Store surface servers call without a nil guard.
func TestGetRawNilStore(t *testing.T) {
	var s *Store
	if _, _, ok := s.GetRaw("deadbeef"); ok {
		t.Fatal("nil store returned a hit")
	}
}

// TestHotTierServesRepeatReads checks the in-memory tier: the first raw read
// verifies from disk and goes resident, and repeat reads are served from
// memory (observable: they survive the segment being emptied underneath).
func TestHotTierServesRepeatReads(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	want := testRun("BP", 99)
	if err := s.PutRunAt(cfg, "BP", "", "", want); err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	if s.HotLen() != 0 {
		t.Fatalf("hot tier holds %d entries before any read, want 0 (reads verify from disk first)", s.HotLen())
	}
	first, _, ok := s.GetRaw(key)
	if !ok {
		t.Fatal("disk read missed")
	}
	if s.HotLen() != 1 {
		t.Fatalf("hot tier holds %d entries after a verified read, want 1", s.HotLen())
	}
	if err := os.Truncate(locate(t, s, key).seg.f.Name(), 0); err != nil {
		t.Fatal(err)
	}
	second, cycles, ok := s.GetRaw(key)
	if !ok {
		t.Fatal("hot read missed after the segment was emptied")
	}
	if !bytes.Equal(first, second) || cycles != want.Cycles {
		t.Fatal("hot read returned different bytes than the disk read")
	}
}

// TestHotTierBytesBounded checks the LRU byte budget: entries beyond it push
// the oldest out.
func TestHotTierBytesBounded(t *testing.T) {
	cfg := testConfig()
	one, _ := json.Marshal(testRun("BP", 1))
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits roughly two results (entries above budget/4 are skipped,
	// so the budget must be comfortably larger than one object).
	s.hotMax = int64(len(one))*2 + 64
	benches := []string{"BP", "RN", "SN"}
	for _, b := range benches {
		if err := s.PutRunAt(cfg, b, "", "", testRun(b, 5)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.GetRaw(KeyAt(cfg, b, "", "")); !ok {
			t.Fatalf("read of %s missed", b)
		}
	}
	if got := s.HotLen(); got >= len(benches) {
		t.Fatalf("hot tier holds %d entries, want < %d (budget must evict)", got, len(benches))
	}
}

// TestHotTierDroppedOnQuarantine checks that quarantining a key also forgets
// its resident bytes, so a healed slot never serves the pre-corruption data.
func TestHotTierDroppedOnQuarantine(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		t.Fatal(err)
	}
	key := KeyAt(cfg, "BP", "", "")
	if _, _, ok := s.GetRaw(key); !ok {
		t.Fatal("read missed")
	}
	s.quarantine(locate(t, s, key))
	if s.HotLen() != 0 {
		t.Fatalf("hot tier still holds %d entries after quarantine", s.HotLen())
	}
	if _, _, ok := s.GetRaw(key); ok {
		t.Fatal("quarantined key still served")
	}
}

// TestKeyAtMatchesEncodingJSON pins the hand-written key encoder to
// encoding/json over seeded random key material: every leaf of KeyMaterial,
// its config's included, drawn from values that stress the encoding (large
// and negative integers, floats in and out of exponent form, strings that
// need escaping). The key must be the hex SHA-256 of json.Marshal's bytes,
// so no store object moves.
func TestKeyAtMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ints := []int64{0, 1, 7, 4096, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 54.7, 1e-6, 9.99e-7, 1e21, 1e20, -3.5e-300, math.MaxFloat64, 5e-324}
	strs := []string{"", "BP", "dram:0.0@100*0.5", "<a&b>", "quote\"back\\slash", "tab\tnul\x00", "ÜNÏ\xff", "a b"}
	var leaves func(v reflect.Value) []reflect.Value
	leaves = func(v reflect.Value) []reflect.Value {
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				out = append(out, leaves(f)...)
			} else {
				out = append(out, f)
			}
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		var m KeyMaterial
		for _, f := range leaves(reflect.ValueOf(&m).Elem()) {
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(ints[rng.Intn(len(ints))] + rng.Int63n(3) - 1)
			case reflect.Uint8:
				f.SetUint(uint64(rng.Intn(256)))
			case reflect.Bool:
				f.SetBool(rng.Intn(2) == 1)
			case reflect.Float64:
				v := floats[rng.Intn(len(floats))]
				if rng.Intn(2) == 0 {
					v = math.Float64frombits(rng.Uint64())
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1.5
				}
				f.SetFloat(v)
			case reflect.String:
				f.SetString(strs[rng.Intn(len(strs))])
			default:
				t.Fatalf("KeyMaterial leaf of kind %s has no random value", f.Kind())
			}
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, key := marshalKey(m); !bytes.Equal(got, want) || key != hexSum(want) || keyOf(m) != key {
			t.Fatalf("key material encodes differently from encoding/json:\n got %s\nwant %s", got, want)
		}
		m.Schema = schemaVersion
		for _, fid := range []string{m.Fidelity, "exact"} {
			want, _ := json.Marshal(materialAt(m.Config, m.Benchmark, m.Faults, fid))
			if got := KeyAt(m.Config, m.Benchmark, m.Faults, fid); got != hexSum(want) {
				t.Fatalf("KeyAt %s, want the SHA-256 of %s", got, want)
			}
		}
	}
}
