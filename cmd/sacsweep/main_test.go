package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
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

// daemon starts an in-process sacd and returns its URL and a count of the
// requests it has served.
func daemon(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	s := server.New(server.Config{})
	s.Start()
	api := s.Handler()
	var requests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return hs.URL, &requests
}

// TestSweepGolden pins the bytes of two sweeps: every experiment the
// estimate rung covers over the fast set, with one skip line for each it
// does not (serial, at the default parallelism, and through a sacd), and an
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
	out, log := sweep(t, estimate...)
	got["estimate_all_fast"] = digests(t, out)
	var skipped []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(line, "sacsweep: "), " skipped: fidelity \"estimate\" does not model "); ok {
			skipped = append(skipped, id)
		}
	}
	if ids, want := strings.Join(skipped, " "), "fig1 fig8 fig9 fig10 headline eabval"; ids != want {
		t.Errorf("the estimate sweep skipped %q, want %q:\n%s", ids, want, log)
	}
	if serial, _ := sweep(t, append(estimate, "-parallel", "1")...); serial != out {
		t.Error("estimate sweep differs between -parallel 1 and the default")
	}

	// The same sweep through a sacd, warming a cache; a rerun from that cache
	// answers every cell locally and sends the daemon nothing.
	url, requests := daemon(t)
	remote := append(estimate, "-remote", url, "-cache-dir", t.TempDir())
	if cold, _ := sweep(t, remote...); cold != out {
		t.Error("remote estimate sweep differs from the local one")
	}
	sent := requests.Load()
	if sent == 0 {
		t.Error("the remote sweep sent the daemon nothing")
	}
	rerun, rerunLog := sweep(t, append(remote, "-progress")...)
	if rerun != out {
		t.Error("warm remote estimate sweep differs from the local one")
	}
	if !strings.Contains(rerunLog, " hits, 0 misses") {
		t.Errorf("warm remote rerun missed the cache:\n%s", rerunLog)
	}
	if n := requests.Load() - sent; n != 0 {
		t.Errorf("warm remote rerun sent the daemon %d requests, want none", n)
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

// TestUncoveredExperimentFails: an experiment named explicitly that the
// rung does not cover fails with one error line and prints no table.
func TestUncoveredExperimentFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig9", "-set", "BP", "-fidelity", "estimate"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("printed a table for a refused experiment:\n%s", out.String())
	}
	if want := "sacsweep: fig9 failed: fidelity \"estimate\" does not model the static organization; use \"exact\"\n"; errOut.String() != want {
		t.Errorf("stderr %q, want %q", errOut.String(), want)
	}
}

// TestUnknownFidelityFailsFirst pins that a rung the ladder does not have is
// one error before any work, not a table followed by one error per cell.
func TestUnknownFidelityFailsFirst(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table4,fig8", "-set", "fast", "-fidelity", "sampled"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("wrote output before rejecting the rung:\n%s", out.String())
	}
	if lines := strings.Count(errOut.String(), "\n"); lines != 1 || !strings.Contains(errOut.String(), `unknown fidelity "sampled"`) {
		t.Errorf("want one unknown-fidelity line on stderr, got %d:\n%s", lines, errOut.String())
	}
}
