package server

// Tests for the high-throughput serving path: jobs:batch submission,
// jobs:watch long-polling, and the zero-copy store-hit plumbing they ride.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/store"
)

// openTestStore opens a persistent store in dir and closes it with the test.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestBatchSubmitDedup submits one batch full of the same estimate cell:
// exactly one simulation must run, the duplicates must answer from the
// store's verified bytes, and every member must return identical results.
func TestBatchSubmitDedup(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, c := testDaemon(t, Config{Workers: 4, Store: st})
	ctx := context.Background()

	const n = 6
	reqs := make([]client.JobRequest, n)
	for i := range reqs {
		reqs[i] = tinyRequest("BP", "SAC")
		reqs[i].Fidelity = client.FidelityEstimate
	}
	sts, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != n {
		t.Fatalf("got %d statuses, want %d", len(sts), n)
	}
	sims, stores := 0, 0
	for i, s := range sts {
		if s.State != client.StateDone {
			t.Fatalf("job %d: state %s (%s), want done", i, s.State, s.Error)
		}
		switch s.Source {
		case client.SourceSim:
			sims++
		case client.SourceStore:
			stores++
		default:
			t.Errorf("job %d: unexpected source %q", i, s.Source)
		}
		if len(s.Result) == 0 {
			t.Fatalf("job %d: no inline result", i)
		}
		if !bytes.Equal(s.Result, sts[0].Result) {
			t.Errorf("job %d: result bytes differ from job 0", i)
		}
	}
	if sims != 1 || stores != n-1 {
		t.Fatalf("sims=%d stores=%d, want 1 and %d (in-batch duplicates must hit the store)", sims, stores, n-1)
	}
}

// TestBatchMixedFidelity checks a batch carrying both rungs: the estimate
// item is terminal in the submission response, the exact item queues and is
// collected by WaitAll over the watch endpoint.
func TestBatchMixedFidelity(t *testing.T) {
	// The one worker wedges on a blocker job, so the batch's exact item is
	// still queued when the response is written, however long the inline
	// estimate takes.
	gate := make(chan struct{})
	var blockerID string
	known := make(chan struct{}) // closed once blockerID is set
	_, c := testDaemon(t, Config{Workers: 1, Chaos: Chaos{BeforeRun: func(id string) {
		<-known
		if id == blockerID {
			<-gate
		}
	}}})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	ctx := context.Background()
	blocker, err := c.Submit(ctx, tinyRequest("SN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	blockerID = blocker.ID
	close(known)

	est := tinyRequest("RN", "SAC")
	est.Fidelity = client.FidelityEstimate
	exact := tinyRequest("BP", "SAC")
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{est, exact})
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].State != client.StateDone {
		t.Fatalf("estimate item state %s, want done at submit", sts[0].State)
	}
	if sts[1].Done() {
		t.Fatalf("exact item already terminal at submit: %+v", sts[1])
	}
	release()
	final, err := c.WaitAll(ctx, []string{sts[1].ID})
	if err != nil {
		t.Fatal(err)
	}
	if got := final[sts[1].ID].State; got != client.StateDone {
		t.Fatalf("exact item finished %s, want done", got)
	}
}

// TestBatchMalformed sends a batch where some items are invalid: the whole
// batch must be rejected with 400, no job admitted, and the response must
// name each bad item's error while leaving valid slots empty.
func TestBatchMalformed(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	good := tinyRequest("RN", "SAC")
	breq := client.BatchRequest{Jobs: []client.JobRequest{
		good,
		{Benchmark: "no-such-benchmark", Org: "SAC"},
		{Benchmark: "RN", Org: "no-such-org"},
	}}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(hs.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var bresp client.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bresp.Error, "2 of 3") {
		t.Errorf("top-level error %q does not count the bad items", bresp.Error)
	}
	if len(bresp.Jobs) != 3 {
		t.Fatalf("got %d items, want 3", len(bresp.Jobs))
	}
	if bresp.Jobs[0].Error != "" || bresp.Jobs[0].Status != nil {
		t.Errorf("valid item 0 got error %q / status %v, want clean slot", bresp.Jobs[0].Error, bresp.Jobs[0].Status)
	}
	for i := 1; i < 3; i++ {
		if bresp.Jobs[i].Error == "" {
			t.Errorf("bad item %d has no error", i)
		}
	}
	// All-or-nothing: the valid item must not have been admitted.
	if admitted := s.Len(); admitted != 0 {
		t.Fatalf("%d jobs admitted from a rejected batch, want 0", admitted)
	}
}

// TestWatchFirstTerminal checks the core long-poll contract: a watch over a
// mixed set returns as soon as any listed job is terminal, reporting only
// the terminal ones.
func TestWatchFirstTerminal(t *testing.T) {
	// BeforeRun runs on the worker for the exact job and on the accepting
	// goroutine for the estimate one; only the exact job's id wedges.
	gate := make(chan struct{})
	var slowID string
	known := make(chan struct{}) // closed once slowID is set
	_, c := testDaemon(t, Config{Workers: 1, Chaos: Chaos{BeforeRun: func(id string) {
		<-known
		if id == slowID {
			<-gate
		}
	}}})
	t.Cleanup(func() { close(gate) })
	ctx := context.Background()

	// The exact job wedges in BeforeRun; the estimate job is terminal at
	// submit.
	slow, err := c.Submit(ctx, tinyRequest("BP", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	slowID = slow.ID
	close(known)
	est := tinyRequest("RN", "SAC")
	est.Fidelity = client.FidelityEstimate
	fast, err := c.Submit(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	if fast.State != client.StateDone {
		t.Fatalf("estimate job state %s, want done", fast.State)
	}

	resp, err := c.Watch(ctx, []string{slow.ID, fast.ID, "no-such-job"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].ID != fast.ID {
		t.Fatalf("watch returned %+v, want exactly the terminal job %s", resp.Jobs, fast.ID)
	}
	if resp.Jobs[0].State != client.StateDone {
		t.Fatalf("terminal job reported %s", resp.Jobs[0].State)
	}
	if len(resp.Jobs[0].Result) == 0 {
		t.Fatalf("watch response carries no inline result")
	}
	if len(resp.Unknown) != 1 || resp.Unknown[0] != "no-such-job" {
		t.Fatalf("unknown list %v, want [no-such-job]", resp.Unknown)
	}
}

// TestWatchBlocksUntilTerminal checks the other half of the contract: a
// watch armed while every listed job is pending parks until one finishes.
func TestWatchBlocksUntilTerminal(t *testing.T) {
	release := make(chan struct{})
	_, c := testDaemon(t, Config{Workers: 1, Chaos: Chaos{BeforeRun: func(string) { <-release }}})
	ctx := context.Background()

	st, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan client.WatchResponse, 1)
	go func() {
		resp, werr := c.Watch(ctx, []string{st.ID}, 30*time.Second)
		if werr != nil {
			t.Error(werr)
		}
		done <- resp
	}()
	select {
	case <-done:
		t.Fatal("watch returned while the job was still wedged")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case resp := <-done:
		if len(resp.Jobs) != 1 || resp.Jobs[0].State != client.StateDone {
			t.Fatalf("watch returned %+v, want the done job", resp.Jobs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not wake after the job finished")
	}
}

// TestWatchTimeout checks that timeout_ms bounds the park: with every job
// pending, the handler answers 200 with an empty set so the client re-arms.
func TestWatchTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := testDaemon(t, Config{Workers: 1, Chaos: Chaos{BeforeRun: func(string) { <-release }}})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	st, err := s.Submit(client.JobRequest{Benchmark: "RN", Org: "SAC"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	resp, err := http.Get(hs.URL + "/v1/jobs:watch?ids=" + st.ID + "&timeout_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if waited := time.Since(t0); waited < 80*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("watch returned after %v, want ~100ms", waited)
	}
	var wr client.WatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Jobs) != 0 || len(wr.Unknown) != 0 {
		t.Fatalf("timed-out watch returned %+v, want empty sets", wr)
	}
}

// TestWatchCtxCancel checks that cancelling the caller's context unblocks a
// parked watch with the context's error instead of hanging out the timeout.
func TestWatchCtxCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := testDaemon(t, Config{Workers: 1, Chaos: Chaos{BeforeRun: func(string) { <-release }}})

	st, err := c.Submit(context.Background(), tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, werr := c.Watch(ctx, []string{st.ID}, 30*time.Second)
		errc <- werr
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case werr := <-errc:
		if werr == nil {
			t.Fatal("watch returned nil after context cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not unblock on context cancel")
	}
}

// TestResultServedFromRawBytes pins the zero-copy invariant end to end: the
// result endpoint's body for a store-hit job is byte-identical to a
// sim-path job's, and both decode to the same statistics.
func TestResultServedFromRawBytes(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, c := testDaemon(t, Config{Workers: 2, Store: st})
	ctx := context.Background()

	first, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if first, err = c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	simRaw, err := c.ResultRaw(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if second, err = c.Wait(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if second.Source != client.SourceStore && second.Source != client.SourceMemo {
		t.Fatalf("second job source %q, want a cache hit", second.Source)
	}
	hitRaw, err := c.ResultRaw(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simRaw, hitRaw) {
		t.Fatalf("store-hit result bytes differ from sim-path bytes:\n%s\nvs\n%s", hitRaw, simRaw)
	}
}
