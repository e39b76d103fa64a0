package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenPath pins, per sweep, one sha256 per experiment of its -json output.
const goldenPath = "testdata/sweep_golden.json"

// sweep runs the command in process and returns its stdout and stderr,
// failing the test on a non-zero exit.
func sweep(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("sacsweep %s exited %d:\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.String(), errOut.String()
}

// digests hashes -json output experiment by experiment; an id that emits
// several results (ablation) hashes their concatenation.
func digests(t *testing.T, out string) map[string]string {
	t.Helper()
	hashes := map[string]hash.Hash{}
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		var head struct{ Experiment string }
		if err := json.Unmarshal(raw, &head); err != nil || head.Experiment == "" {
			t.Fatalf("result without an experiment id: %.80s", raw)
		}
		if hashes[head.Experiment] == nil {
			hashes[head.Experiment] = sha256.New()
		}
		hashes[head.Experiment].Write(raw)
	}
	sums := make(map[string]string, len(hashes))
	for id, h := range hashes {
		sums[id] = hex.EncodeToString(h.Sum(nil))
	}
	return sums
}

// TestSweepGolden pins the bytes of two sweeps: every experiment of the fast
// set at the estimate rung (serial and at the default parallelism) and an
// exact Fig 8 over SN and BP, cold and then warm from a result cache.
func TestSweepGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]string{}

	estimate := []string{"-exp", "all", "-set", "fast", "-fidelity", "estimate", "-json"}
	out, _ := sweep(t, estimate...)
	got["estimate_all_fast"] = digests(t, out)
	if serial, _ := sweep(t, append(estimate, "-parallel", "1")...); serial != out {
		t.Error("estimate sweep differs between -parallel 1 and the default")
	}

	exact := []string{"-exp", "fig8", "-set", "SN,BP", "-json", "-cache-dir", t.TempDir()}
	cold, _ := sweep(t, exact...)
	got["exact_fig8_SN_BP"] = digests(t, cold)
	warm, progress := sweep(t, append(exact, "-progress")...)
	if warm != cold {
		t.Error("warm rerun from the result cache differs from the cold sweep")
	}
	if !strings.Contains(progress, ": 10 hits, 0 misses") {
		t.Errorf("warm rerun did not report 10 hits, 0 misses:\n%s", progress)
	}

	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("sweep bytes changed; if the change is meant, %s becomes:\n%s", goldenPath, b)
	}
}
