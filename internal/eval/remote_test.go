package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/llc"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// remoteCounts counts what a remote run-set costs its daemon: batch submits
// and requests of any kind.
type remoteCounts struct{ batches, all atomic.Int64 }

// countingDaemon starts an in-process sacd admitting at most queueCap queued
// jobs, behind a handler that counts its requests.
func countingDaemon(t *testing.T, queueCap int) (*client.Client, *remoteCounts) {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueCap: queueCap})
	s.Start()
	api := s.Handler()
	n := &remoteCounts{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n.all.Add(1)
		if req.URL.Path == "/v1/jobs:batch" {
			n.batches.Add(1)
		}
		api.ServeHTTP(w, req)
	}))
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return client.New(hs.URL, client.WithBackoff(2*time.Millisecond, 20*time.Millisecond)), n
}

// distinctCells returns n cells of one shape, each its own key: every cell
// gets its own MaxCycles, a safety stop none of them reaches.
func distinctCells(t *testing.T, r *Runner, n int) []RunRequest {
	t.Helper()
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]RunRequest, n)
	for i := range reqs {
		cfg := r.Base.WithOrg(llc.SAC)
		cfg.MaxCycles += int64(i)
		reqs[i] = RunRequest{Cfg: cfg, Spec: spec}
	}
	return reqs
}

// TestRemoteRoundTrips pins what a remote run-set costs: its store-missing
// distinct cells go out in ⌈n / remoteBatch⌉ submits, and a rerun on the same
// Runner (recalled) or on a fresh Runner over the warm store (store hits)
// sends nothing. Each answer equals an in-process run's.
func TestRemoteRoundTrips(t *testing.T) {
	cc, n := countingDaemon(t, 0)
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	r := testRunner("BP")
	r.Fidelity = "estimate"
	r.Remote, r.Store = cc, open()
	reqs := distinctCells(t, r, 2*remoteBatch+1)
	runs, err := r.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate cells come back done in the batch response: no watch.
	if n.batches.Load() != 3 || n.all.Load() != 3 {
		t.Fatalf("%d cells made %d submits and %d requests, want 3 and 3", len(reqs), n.batches.Load(), n.all.Load())
	}
	local := testRunner("BP")
	local.Fidelity = "estimate"
	want, err := local.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(t, runs, want) {
		t.Fatal("remote answers differ from in-process runs")
	}

	if _, err := r.RunAll(reqs); err != nil {
		t.Fatal(err)
	}
	if got := n.all.Load(); got != 3 {
		t.Fatalf("a rerun on the same Runner made %d requests, want none", got-3)
	}

	r.Store.Close()
	warm := testRunner("BP")
	warm.Fidelity = "estimate"
	warm.Remote, warm.Store = cc, open()
	again, err := warm.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.all.Load(); got != 3 {
		t.Fatalf("a fresh Runner over the warm store made %d requests, want none", got-3)
	}
	if warm.Store.Hits() != int64(len(reqs)) || warm.Runs() != 0 {
		t.Fatalf("warm rerun: %d store hits and %d runs, want %d and 0", warm.Store.Hits(), warm.Runs(), len(reqs))
	}
	if !sameBytes(t, again, want) {
		t.Fatal("store-hit answers differ from in-process runs")
	}
}

// TestRemoteRunSetOverQueueCap sends one more batch than may be outstanding,
// all exact cells, to a sacd whose queue holds exactly the outstanding ones:
// sacd admits a batch all or nothing, so this completes only because RunAll
// holds the last batch back until an earlier one is collected.
func TestRemoteRunSetOverQueueCap(t *testing.T) {
	cc, n := countingDaemon(t, remoteBatches*remoteBatch)
	r := testRunner("BP")
	r.Remote = cc
	reqs := distinctCells(t, r, (remoteBatches+1)*remoteBatch)
	runs, err := r.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run == nil {
			t.Fatalf("cell %d has no result", i)
		}
	}
	if n.batches.Load() != remoteBatches+1 {
		t.Fatalf("%d submits, want %d", n.batches.Load(), remoteBatches+1)
	}
}

// TestRemoteResubmitsAcrossRestart swaps the daemon behind the fleet's URL
// between a batch's submit and its watch: the new daemon, a fresh sacd over
// the same store, does not know the old ids. Each such cell is submitted
// again, once, and the run-set still equals an in-process run.
func TestRemoteResubmitsAcrossRestart(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// The first daemon never starts its workers: its jobs stay queued, and
	// die with it.
	old, fresh := server.New(server.Config{Workers: 1, Store: st}), server.New(server.Config{Workers: 1, Store: st})
	fresh.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = old.Drain(ctx)
		_ = fresh.Drain(ctx)
	})
	var batches atomic.Int64
	oldAPI, freshAPI := old.Handler(), fresh.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/jobs:batch" && batches.Add(1) == 1 {
			oldAPI.ServeHTTP(w, req)
			return
		}
		freshAPI.ServeHTTP(w, req)
	}))
	defer hs.Close()

	r := testRunner("BP")
	r.Remote = client.New(hs.URL, client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
	reqs := distinctCells(t, r, 3)
	runs, err := r.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := batches.Load(); n != 2 {
		t.Fatalf("%d submits, want 2: the batch, then its lost cells once", n)
	}
	want, err := testRunner("BP").RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(t, runs, want) {
		t.Fatal("answers across the restart differ from in-process runs")
	}
}

// TestRemoteShortBatchFails answers a batch with fewer statuses than cells:
// every cell fails with an error that says so, and none is simulated here.
func TestRemoteShortBatchFails(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/jobs:batch" {
			t.Errorf("unexpected request %s", req.URL.Path)
			http.NotFound(w, req)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"jobs":[{"status":{"id":"j1","state":"done"}}]}`)
	}))
	defer hs.Close()
	r := testRunner("BP")
	r.Remote = client.New(hs.URL)
	runs, err := r.RunAll(distinctCells(t, r, 2))
	if runs[0] != nil || runs[1] != nil || err == nil || !strings.Contains(err.Error(), "answered with 1 statuses") {
		t.Fatalf("runs %v, err %v; want two failed cells naming the short batch", runs, err)
	}
	var pe *jobs.PanicError
	if errors.As(err, &pe) || r.Runs() != 0 {
		t.Fatalf("err %v, %d local runs; want the batch's error and none", err, r.Runs())
	}
}

// sameBytes reports whether two result lists marshal identically.
func sameBytes(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
