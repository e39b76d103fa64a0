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
	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// openTestStore opens a persistent store in dir and closes it with the test.
func openTestStore(t testing.TB, dir string) *store.Store {
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
	_, c := testDaemon(t, Config{Workers: 1, chaos: Chaos{BeforeRun: func(id string) {
		<-known
		if id == blockerID {
			<-gate
		}
	}}})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	ctx := context.Background()
	blocker, err := submit(ctx, c, tinyRequest("SN", "SAC"))
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

// TestOnlyPendingJobsAreKept pins what a mixed batch leaves in the table.
// The estimate item settles in admission: its status is done, with its
// result inline and no id, and the daemon keeps nothing of it. The exact
// item is pending when the response is written, with an id, and once done
// its final status is retained. Len and the sacd_jobs_retained gauge count
// the exact job alone.
func TestOnlyPendingJobsAreKept(t *testing.T) {
	// Workers start only once the batch is answered, so its exact item is
	// still queued then.
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	c := client.New(hs.URL)
	ctx := context.Background()

	est := tinyRequest("RN", "SAC")
	est.Fidelity = client.FidelityEstimate
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{est, tinyRequest("BP", "SAC")})
	if err != nil {
		t.Fatal(err)
	}
	if st := sts[0]; st.State != client.StateDone || st.ID != "" || st.Key == "" || st.Source == "" || len(st.Result) == 0 {
		t.Fatalf("estimate item: %s, id %q, key %q, source %q, %d result bytes; want done, with key, source and result inline, and no id",
			st.State, st.ID, st.Key, st.Source, len(st.Result))
	}
	exact := sts[1]
	if exact.Done() || exact.ID == "" {
		t.Fatalf("exact item: %s, id %q; want pending, with an id", exact.State, exact.ID)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d after admission, want 1: the exact job alone", n)
	}
	s.Start()
	final, err := c.WaitAll(ctx, []string{exact.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.Status(exact.ID); !ok || st.State != client.StateDone || !bytes.Equal(st.Result, final[exact.ID].Result) {
		t.Fatalf("exact job after it finished: known=%v %s; want retained done with the result the watch carried", ok, st.State)
	}
	s.Sweep(time.Now())
	if n, g := s.Len(), reg.Gauge("sacd_jobs_retained", "").Value(); n != 1 || g != 1 {
		t.Fatalf("Len = %d, sacd_jobs_retained = %v after the sweep; want 1 and 1", n, g)
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
	if len(bresp.Jobs) > 1 && !strings.Contains(bresp.Error, bresp.Jobs[1].Error) {
		t.Errorf("top-level error %q does not name the first bad item's %q", bresp.Error, bresp.Jobs[1].Error)
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

// TestWatchFirstTerminal checks the long-poll's early answer: a watch over
// a mixed set that names an unknown id returns at once, although a listed
// job is still running, reporting the terminal ones and the unknown id.
func TestWatchFirstTerminal(t *testing.T) {
	// BeforeRun runs on a worker for each exact job; only the slow job's id
	// wedges.
	gate := make(chan struct{})
	var slowID string
	known := make(chan struct{}) // closed once slowID is set
	_, c := testDaemon(t, Config{Workers: 2, chaos: Chaos{BeforeRun: func(id string) {
		<-known
		if id == slowID {
			<-gate
		}
	}}})
	t.Cleanup(func() { close(gate) })
	ctx := context.Background()

	// The slow job wedges in BeforeRun; the fast one finishes on the other
	// worker.
	slow, err := submit(ctx, c, tinyRequest("BP", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	slowID = slow.ID
	close(known)
	fast, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err == nil {
		fast, err = c.Wait(ctx, fast.ID)
	}
	if err != nil {
		t.Fatal(err)
	}
	if fast.State != client.StateDone {
		t.Fatalf("fast job state %s, want done", fast.State)
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
// watch armed while its job is pending parks until it finishes.
func TestWatchBlocksUntilTerminal(t *testing.T) {
	release := make(chan struct{})
	_, c := testDaemon(t, Config{Workers: 1, chaos: Chaos{BeforeRun: func(string) { <-release }}})
	ctx := context.Background()

	st, err := submit(ctx, c, tinyRequest("RN", "SAC"))
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
	s, _ := testDaemon(t, Config{Workers: 1, chaos: Chaos{BeforeRun: func(string) { <-release }}})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	st, err := admit(s, client.JobRequest{Benchmark: "RN", Org: "SAC"})
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
	_, c := testDaemon(t, Config{Workers: 1, chaos: Chaos{BeforeRun: func(string) { <-release }}})

	st, err := submit(context.Background(), c, tinyRequest("RN", "SAC"))
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
// result bytes the status route serves for a store-hit job are
// byte-identical to a sim-path job's. The hit comes from
// a second daemon over the same store, which has no flight of the first
// daemon's to join.
func TestResultServedFromRawBytes(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, c, url := testDaemonURL(t, Config{Workers: 2, Store: st})
	_, c2, url2 := testDaemonURL(t, Config{Workers: 2, Store: st})
	ctx := context.Background()

	first, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if first, err = c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	simRaw := servedResult(t, url, first.ID)

	second, err := submit(ctx, c2, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if second, err = c2.Wait(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if second.Source != client.SourceStore {
		t.Fatalf("second job source %q, want a store hit", second.Source)
	}
	hitRaw := servedResult(t, url2, second.ID)
	if len(simRaw) == 0 || !bytes.Equal(simRaw, hitRaw) {
		t.Fatalf("store-hit result bytes differ from sim-path bytes:\n%s\nvs\n%s", hitRaw, simRaw)
	}
}

// TestBatchSharesProfiles submits the 256-cell estimate universe (16 specs
// × {SAC, memory-side, SM-side, static} × workload scale {256, 384, 512,
// 640} on ScaledConfig) as one batch to a fresh daemon. The batch's cells
// share replays — one per (spec, scale), 64 in all, as
// sacd_estimate_replays_total counts them — and sharing is invisible: every
// status carries a lone backend.Run's bytes.
func TestBatchSharesProfiles(t *testing.T) {
	reg := obs.NewRegistry()
	_, c := testDaemon(t, Config{Workers: 4, Store: openTestStore(t, t.TempDir()), Registry: reg})
	var reqs []client.JobRequest
	var want [][]byte
	for _, spec := range workload.Catalog() {
		for _, org := range []llc.Org{llc.SAC, llc.MemorySide, llc.SMSide, llc.Static} {
			for _, scale := range []int{256, 384, 512, 640} {
				cfg := gpu.ScaledConfig().WithOrg(org)
				cfg.WorkloadScale = scale
				run, err := backend.Run(cfg, spec, gpu.RunOpts{Fidelity: backend.Estimate})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(run)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, b)
				reqs = append(reqs, client.JobRequest{Benchmark: spec.Name, Org: org.String(),
					Config: &cfg, Fidelity: client.FidelityEstimate})
			}
		}
	}
	sts, err := c.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st.State != client.StateDone || st.Source != client.SourceSim {
			t.Fatalf("%s/%s: %s from %q (%s), want done from a simulation", st.Benchmark, st.Org, st.State, st.Source, st.Error)
		}
		if !bytes.Equal(st.Result, want[i]) {
			t.Errorf("%s/%s: result bytes differ from a lone backend.Run's", st.Benchmark, st.Org)
		}
	}
	if n := reg.Counter("sacd_estimate_replays_total", "").Value(); n != 64 {
		t.Fatalf("%v replays for 256 cells, want 64: one per (spec, workload scale)", n)
	}
}
