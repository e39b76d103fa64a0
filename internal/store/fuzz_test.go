package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzStoreObject plants arbitrary bytes where a valid key's object lives
// and reads them back through both entry points. The decoder takes whatever
// the disk holds, so it must never panic; it may answer ok only when the
// bytes carry the right schema, key material that hashes to the address,
// and a payload matching its recorded content hash; and everything else
// must end up quarantined, not left addressable.
func FuzzStoreObject(f *testing.F) {
	cfg := testConfig()
	key := KeyAt(cfg, "BP", "", "")
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutRunAt(cfg, "BP", "", "", testRun("BP", 7)); err != nil {
		f.Fatal(err)
	}
	path := s.objectPath(key)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Replace(good, []byte(`"Cycles":7`), []byte(`"Cycles":8`), 1)
	if bytes.Equal(flipped, good) {
		f.Fatal("seed setup: payload byte to flip not found")
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var env rawEnvelope
		valid := json.Unmarshal(data, &env) == nil &&
			env.Version == schemaVersion && keyOf(env.Key) == key &&
			len(env.Result) > 0 && string(env.Result) != "null" &&
			hexSum(env.Result) == env.Sum

		corrupt := s.Corrupt()
		raw, _, ok := s.GetRaw(key)
		if ok != valid {
			t.Fatalf("GetRaw ok=%v for an object whose verification is %v: %q", ok, valid, data)
		}
		if ok {
			if !bytes.Equal(raw, env.Result) {
				t.Fatalf("GetRaw served bytes other than the verified payload: %q", data)
			}
			// The repeat read comes from the hot tier and must agree.
			if again, _, ok := s.GetRaw(key); !ok || !bytes.Equal(again, raw) {
				t.Fatalf("hot-tier read disagrees with the verified disk read: %q", data)
			}
			// A payload can verify and still not be a run (say, a bare
			// number with a matching sum): Get must decode it or quarantine it.
			if _, ok = s.Get(key); ok {
				s.hotDrop(key) // the next input replaces the file behind the store's back
				return
			}
		}
		if s.Corrupt() != corrupt+1 {
			t.Fatalf("rejected object not counted as corrupt: %q", data)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected object still addressable: %q", data)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("rejected object not quarantined: %v", err)
		}
		if s.HotLen() != 0 {
			t.Fatalf("rejected object left bytes in the hot tier: %q", data)
		}
		os.Remove(path + ".corrupt")
	})
}
