package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// verifiedResult is the tests' own reading of one envelope: its result
// bytes, and whether they carry the right schema, key material that hashes
// to key, and a payload matching the recorded content hash.
func verifiedResult(key string, envelope []byte) ([]byte, bool) {
	var env rawEnvelope
	ok := json.Unmarshal(envelope, &env) == nil &&
		env.Version == schemaVersion && keyOf(env.Key) == key &&
		len(env.Result) > 0 && string(env.Result) != "null" &&
		hexSum(env.Result) == env.Sum
	return env.Result, ok
}

// lastRecord returns the envelope of key's last complete record in seg: the
// one a scan leaves indexed.
func lastRecord(seg []byte, key string) (env []byte, found bool) {
	for nl := bytes.IndexByte(seg, '\n'); nl >= 0; nl = bytes.IndexByte(seg, '\n') {
		if line := seg[:nl]; len(line) > keyLen+1 && string(line[:keyLen+1]) == key+" " {
			env, found = line[keyLen+1:], true
		}
		seg = seg[nl+1:]
	}
	return env, found
}

// goodSegment returns a segment holding one record each of BP and RN, and
// BP's key and envelope.
func goodSegment(f *testing.F) (seg []byte, key string, env []byte) {
	cfg := testConfig()
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []string{"RN", "BP"} {
		if err := s.PutRunAt(cfg, b, "", "", testRun(b, 7)); err != nil {
			f.Fatal(err)
		}
	}
	key = KeyAt(cfg, "BP", "", "")
	env = envelopeOf(f, s, key)
	abandon(s)
	seg, err = os.ReadFile(segmentFiles(f, dir)[0])
	if err != nil {
		f.Fatal(err)
	}
	return seg, key, env
}

// FuzzStoreObject frames arbitrary bytes as the envelope of a valid key's
// record, behind a good record of another key, and reads the key back
// through both entry points of a freshly opened store. The decoder takes
// whatever the disk holds, so it must never panic; it may answer ok only
// with exactly the verified payload of the key's record; and every other
// outcome must be a counted miss that leaves nothing indexed or resident.
func FuzzStoreObject(f *testing.F) {
	good, key, env := goodSegment(f)
	neighbour := good[:bytes.Index(good, []byte(key+" "))]
	rnKey := KeyAt(testConfig(), "RN", "", "")
	rnEnv, _ := lastRecord(neighbour, rnKey)
	flipped := bytes.Replace(env, []byte(`"Cycles":7`), []byte(`"Cycles":8`), 1)
	if bytes.Equal(flipped, env) {
		f.Fatal("seed setup: payload byte to flip not found")
	}
	f.Add(env)
	f.Add(env[:len(env)/2])
	f.Add(flipped)
	dir := f.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("%016x%s", 0, packExt))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := append(append(append(bytes.Clone(neighbour), key...), ' '), data...)
		seg = append(seg, '\n')
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer abandon(s)
		rec, framed := lastRecord(seg, key)
		want, valid := verifiedResult(key, rec)
		valid = valid && framed

		raw, _, ok := s.GetRaw(key)
		if ok != valid {
			t.Fatalf("GetRaw ok=%v for a record whose verification is %v: %q", ok, valid, data)
		}
		if ok {
			if !bytes.Equal(raw, want) {
				t.Fatalf("GetRaw served bytes other than the verified payload: %q", data)
			}
			// The repeat read comes from the hot tier and must agree.
			if again, _, ok := s.GetRaw(key); !ok || !bytes.Equal(again, raw) {
				t.Fatalf("hot-tier read disagrees with the verified disk read: %q", data)
			}
			// A payload can verify and still not be a run (say, a bare
			// number with a matching sum): Get must decode it or quarantine it.
			ok = func() bool { _, ok := s.Get(key); return ok }()
		}
		if !ok {
			if s.Corrupt() == 0 {
				t.Fatalf("rejected record not counted as corrupt: %q", data)
			}
			if indexed(s, key) || s.HotLen() != 0 {
				t.Fatalf("rejected record still indexed or resident: %q", data)
			}
		}
		if last, _ := lastRecord(seg, rnKey); bytes.Equal(last, rnEnv) {
			if _, _, ok := s.GetRaw(rnKey); !ok {
				t.Fatalf("a damaged record took its intact neighbour with it: %q", data)
			}
		}
	})
}

// FuzzPackScan opens arbitrary bytes as a segment. Open must never panic,
// and every record it indexes must, when read, either verify — served as
// exactly the payload its envelope carries — or be counted as corrupt.
func FuzzPackScan(f *testing.F) {
	good, key, _ := goodSegment(f)
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(bytes.Replace(good, []byte(`"Cycles":7`), []byte(`"Cycles":8`), 1))
	f.Add(bytes.ReplaceAll(good, []byte("\n"), nil))
	f.Add(bytes.Replace(good, []byte(key+" "), []byte(key+"\t"), 1))
	f.Add([]byte(key + " {}\n" + key + " \n\n"))
	f.Add([]byte{})
	dir := f.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("%016x%s", 0, packExt))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer abandon(s)
		var entries []diskEntry
		for el := s.lru.Front(); el != nil; el = el.Next() {
			entries = append(entries, *el.Value.(*diskEntry))
		}
		for _, e := range entries {
			if e.off+e.size > int64(len(data)) || data[e.off+e.size-1] != '\n' ||
				data[e.off+keyLen] != ' ' || string(data[e.off:e.off+keyLen]) != e.key {
				t.Fatalf("indexed record %+v is not a key, space, envelope, newline line", e)
			}
			counted := s.Corrupt()
			raw, _, ok := s.GetRaw(e.key)
			if !ok {
				if s.Corrupt() == counted {
					t.Fatalf("indexed record of %q neither served nor counted", e.key)
				}
				continue
			}
			want, valid := verifiedResult(e.key, data[e.off+keyLen+1:e.off+e.size-1])
			if !valid || !bytes.Equal(raw, want) {
				t.Fatalf("record of %q served without verifying: %q", e.key, raw)
			}
		}
	})
}
