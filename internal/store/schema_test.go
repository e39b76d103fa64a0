package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenFiles pin the bytes of results and of their keys: a model change
// shows up as a re-recording of one of them.
var goldenFiles = []string{
	"../gpu/testdata/golden_runs.json",
	"../backend/testdata/estimate_universe.json",
	"../backend/testdata/estimate_straddle.json",
	"../../cmd/sacsweep/testdata/sweep_golden.json",
	"testdata/object_bp_12345.golden.json",
}

// schemaGoldens holds one entry per schemaVersion since the protocol began:
// the version and the digest of goldenFiles it was recorded with.
var schemaGoldens = []struct {
	version int
	digest  string
}{
	{3, "9d4fe1c26cbf9459d0525c9fd9ec8425713e40c478b653f7634eba1423b79ec5"},
	{4, "4da7e8ccb409b5506da0d7af793eec6004b7e85c3cd81ca72349e2ddb02aa9dd"},
	{5, "3555077acb44a94a2d2e06bdf14d70d5c4805141fd963fe573833bd267552688"},
	{6, "787ab0829cf6ae1a192e33a8d20b37c0bd309b990cc65f3519a5e1cd211b1a01"},
	{7, "7a812b7815df49423ca024db351e9049d91be1d404e8f0ee1c58fb3fcfbe2932"},
	{8, "d29cbc5850f96319abc796d585a88e335dcbda36768996e42074df65a3656b1a"},
	{9, "6fe8ddb4cd9e47668c33d288cc0a77c15690769a0b1c004fa0183863037cd7a7"},
	{10, "fa2e4f6cdd5073003bf6791c233042e8296c5976da54471a89ef815fa436eeaa"},
}

// TestSchemaPinsGoldens is the protocol for touching the model: goldens
// re-recorded under an unchanged schemaVersion would let an old result
// store answer for the new model. So the golden files' digest must be the
// one the last entry records, and the last entry's version must be
// schemaVersion; re-recording a golden takes a bump and a new entry.
func TestSchemaPinsGoldens(t *testing.T) {
	h := sha256.New()
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.FromSlash(name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	for i := 1; i < len(schemaGoldens); i++ {
		if schemaGoldens[i].version <= schemaGoldens[i-1].version {
			t.Fatalf("schemaGoldens entry %d: version %d does not follow %d", i, schemaGoldens[i].version, schemaGoldens[i-1].version)
		}
	}
	last := schemaGoldens[len(schemaGoldens)-1]
	if last.version != schemaVersion || last.digest != digest {
		next := max(schemaVersion, last.version+1)
		t.Fatalf("the golden files hash to %s under schemaVersion %d, but the last schemaGoldens entry is {%d, %s}:\n"+
			"set schemaVersion to %d and append {%d, %q}", digest, schemaVersion, last.version, last.digest, next, next, digest)
	}
}
