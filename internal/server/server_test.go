package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/store"
)

// tinyConfig shrinks the machine so server tests simulate in milliseconds
// (mirrors the eval package's testRunner shrink).
func tinyConfig() gpu.Config {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 512
	cfg.SACOpts.WindowCycles = 1500
	return cfg
}

func tinyRequest(benchmark, org string) client.JobRequest {
	cfg := tinyConfig()
	return client.JobRequest{Benchmark: benchmark, Org: org, Config: &cfg}
}

// testDaemon starts a Server over httptest and returns a connected client.
func testDaemon(t testing.TB, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s, c, _ := testDaemonURL(t, cfg)
	return s, c
}

// testDaemonURL is testDaemon that also returns the server's base URL.
func testDaemonURL(t testing.TB, cfg Config) (*Server, *client.Client, string) {
	t.Helper()
	s := New(cfg)
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	c := client.New(hs.URL, client.WithBackoff(time.Millisecond, 8*time.Millisecond))
	return s, c, hs.URL
}

// submit sends req to the daemon as a batch of one and returns its status.
func submit(ctx context.Context, c *client.Client, req client.JobRequest) (client.JobStatus, error) {
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{req})
	if err != nil {
		return client.JobStatus{}, err
	}
	return sts[0], nil
}

// admit admits req into s's table as a batch of one; the item's validation
// error or the batch's refusal is the error.
func admit(s *Server, req client.JobRequest) (client.JobStatus, error) {
	sts, itemErrs, err := s.SubmitBatch([]client.JobRequest{req})
	switch {
	case err != nil:
		return client.JobStatus{}, err
	case itemErrs != nil:
		return client.JobStatus{}, errors.New(itemErrs[0])
	}
	return sts[0], nil
}

func TestSubmitRunAndFetchResult(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("submit returned incomplete status: %+v", st)
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || st.Source != client.SourceSim {
		t.Fatalf("state=%s source=%s, want done/sim", st.State, st.Source)
	}
	res, err := st.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "RN" || res.Cycles <= 0 {
		t.Fatalf("bogus result: benchmark=%q cycles=%d", res.Benchmark, res.Cycles)
	}
	if res.Cycles != st.Cycles {
		t.Fatalf("status cycles %d != result cycles %d", st.Cycles, res.Cycles)
	}
}

func TestValidationRejectedWith400(t *testing.T) {
	_, c, url := testDaemonURL(t, Config{Workers: 1})
	ctx := context.Background()
	// A config body replaces the preset wholesale; these are valid but for an
	// associativity the cache array cannot be built with, or a structural
	// limit past what the cycle loop's fixed tables hold.
	ways := func(set func(*gpu.Config)) *gpu.Config {
		cfg := gpu.ScaledConfig()
		set(&cfg)
		return &cfg
	}
	for _, req := range []client.JobRequest{
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.L1Ways = 0 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.L1Ways = -8 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.LLCWays = 128 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.MSHRPerSlice = 1 << 40 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.SlicesPerChip = 128 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.SMsPerChip = 1 << 40 })},
		{Benchmark: "RN", Org: "SAC", Config: ways(func(c *gpu.Config) { c.WarpsPerSM = 1 << 40 })},
		{Benchmark: "no-such-benchmark", Org: "SAC"},
		{Benchmark: "RN", Org: "no-such-org"},
		{Benchmark: "RN", Org: "SAC", Preset: "no-such-preset"},
		{Benchmark: "RN", Org: "SAC", Faults: "not a fault plan"},
		// A duration past ~292 years would wrap into a deadline already
		// passed.
		{Benchmark: "RN", Org: "SAC", Fidelity: client.FidelityEstimate, TimeoutMS: 1e13},
	} {
		_, err := submit(ctx, c, req)
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("request %+v: want 400, got %v", req, err)
		}
	}

	// The same timeout through the header, which fills timeout_ms before
	// the request resolves. No client sets a deadline that far out, so the
	// request is sent by hand.
	body := strings.NewReader(`{"jobs":[{"benchmark":"RN","org":"SAC","fidelity":"estimate"}]}`)
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs:batch", body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(client.TimeoutHeader, "10000000000000")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: 1e13 ms: want 400, got %d %s", client.TimeoutHeader, resp.StatusCode, msg)
	}
	// A field the request type lacks fails decoding, as sacd's queue has no
	// priority to choose.
	serve(t, http.MethodPost, url+"/v1/jobs:batch", `{"jobs":[{"benchmark":"RN","org":"SAC","priority":"normal"}]}`, http.StatusBadRequest)
}

// TestOneItemBatchNamesItsError: a batch of one that the daemon refuses
// reaches the Go caller with the item's own reason, not only a count of bad
// items, through SubmitBatch and through Run.
func TestOneItemBatchNamesItsError(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	req := client.JobRequest{Benchmark: "no-such-benchmark", Org: "SAC"}
	_, batchErr := c.SubmitBatch(ctx, []client.JobRequest{req})
	_, runErr := c.Run(ctx, req)
	for _, err := range []error{batchErr, runErr} {
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
			!strings.Contains(apiErr.Message, `unknown benchmark "no-such-benchmark"`) {
			t.Errorf("got %v, want a 400 APIError naming the unknown benchmark", err)
		}
	}
}

// rewriteTransport sends every request to path instead of where the client
// addressed it: a client of a route the daemon no longer serves.
type rewriteTransport string

func (path rewriteTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.URL.Path, r.URL.RawPath, r.URL.RawQuery = string(path), "", ""
	return http.DefaultTransport.RoundTrip(r)
}

// TestRemovedRoutesAnswerAPIError: the jobs API is its four routes. A
// per-job submit (POST /v1/jobs) and a result fetch (GET
// /v1/jobs/{id}/result), even for a done job, are 404s that the client
// reports as *client.APIError.
func TestRemovedRoutesAnswerAPIError(t *testing.T) {
	_, c, url := testDaemonURL(t, Config{Workers: 1})
	ctx := context.Background()
	req := tinyRequest("RN", "SAC")
	done, err := submit(ctx, c, req)
	if err == nil {
		done, err = c.Wait(ctx, done.ID)
	}
	if err != nil || done.State != client.StateDone {
		t.Fatalf("exact cell: %+v, %v; want done", done, err)
	}
	for _, tc := range []struct {
		route string
		call  func(*client.Client) error
	}{
		{"/v1/jobs", func(c *client.Client) error { _, err := submit(ctx, c, req); return err }},
		{"/v1/jobs/" + done.ID + "/result", func(c *client.Client) error { _, err := c.Status(ctx, done.ID); return err }},
	} {
		old := client.New(url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: rewriteTransport(tc.route)}))
		var apiErr *client.APIError
		if err := tc.call(old); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %v, want a 404 APIError", tc.route, err)
		}
	}
}

func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}

func TestUnknownJob404(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	_, err := c.Status(context.Background(), "jdeadbeef")
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("want 404, got %v", err)
	}
}

// TestStatusBeforeDoneHasNoResult: a job that has not finished answers its
// status without result bytes, and decoding it names the state.
func TestStatusBeforeDoneHasNoResult(t *testing.T) {
	s := New(Config{Workers: 1})
	// Workers never started: the job stays queued.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	ctx := context.Background()
	st, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Status(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Outcome(); st.State != client.StateQueued || st.Result != nil || err == nil ||
		!strings.Contains(err.Error(), client.StateQueued) {
		t.Fatalf("pending job: %s with %d result bytes, outcome error %v; want queued, none, an error naming it",
			st.State, len(st.Result), err)
	}
}

func TestQueueOverflow429(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 2})
	// Workers never started, so the queue only fills.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := submit(ctx, c, tinyRequest("RN", "SAC")); err != nil {
			t.Fatalf("submit %d within cap failed: %v", i, err)
		}
	}
	_, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("overflow: want 429, got %v", err)
	}
}

// TestConcurrentDedup submits the same cell from many concurrent clients:
// exactly one simulates ("sim"); the rest join it ("dedup") or recall it
// ("memo"), and every result is identical.
func TestConcurrentDedup(t *testing.T) {
	reg := obs.NewRegistry()
	s, c := testDaemon(t, Config{Workers: 4, Registry: reg})
	ctx := context.Background()

	const n = 6
	var wg sync.WaitGroup
	sources := make([]string, n)
	results := make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := submit(ctx, c, tinyRequest("BP", "SAC"))
			if err != nil {
				t.Error(err)
				return
			}
			st, err = c.Wait(ctx, st.ID)
			if err != nil {
				t.Error(err)
				return
			}
			sources[i] = st.Source
			res, err := st.Outcome()
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := json.Marshal(res)
			results[i] = b
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	sims := 0
	for i, src := range sources {
		switch src {
		case client.SourceSim:
			sims++
		case client.SourceDedup, client.SourceMemo:
		default:
			t.Errorf("job %d has unexpected source %q", i, src)
		}
		if string(results[i]) != string(results[0]) {
			t.Errorf("job %d result differs from job 0", i)
		}
	}
	if sims != 1 {
		t.Fatalf("%d jobs simulated, want exactly 1 (the rest dedup/memo)", sims)
	}
	if got := int(s.sims.Load()); got != 1 {
		t.Fatalf("daemon executed %d simulations, want 1", got)
	}
}

// TestStoreSurvivesRestart runs a job, tears the server down, and brings up
// a fresh one over the same store: the second server must answer from the
// persistent store without simulating.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(filepath.Join(dir, "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, c1 := testDaemon(t, Config{Workers: 2, Store: st1})
	ctx := context.Background()

	res1, err := c1.Run(ctx, tinyRequest("RN", "memory-side"))
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(filepath.Join(dir, "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, c2 := testDaemon(t, Config{Workers: 2, Store: st2})
	jst, err := submit(ctx, c2, tinyRequest("RN", "memory-side"))
	if err != nil {
		t.Fatal(err)
	}
	jst, err = c2.Wait(ctx, jst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jst.Source != client.SourceStore {
		t.Fatalf("restarted daemon answered with source %q, want store", jst.Source)
	}
	res2, err := jst.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Fatal("result served from store differs from the original simulation")
	}
	if int(s2.sims.Load()) != 0 {
		t.Fatalf("restarted daemon simulated %d cells, want 0", int(s2.sims.Load()))
	}
}

func TestHealthAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := testDaemon(t, Config{Workers: 3, Store: st, Registry: reg})
	ctx := context.Background()
	if srv.Workers() != 3 {
		t.Fatalf("Workers() = %d, want the configured 3", srv.Workers())
	}

	if _, err := c.Run(ctx, tinyRequest("RN", "SAC")); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != client.HealthHealthy || h.Workers != 3 || h.Jobs != 1 {
		t.Fatalf("health %+v", h)
	}
	if h.StoreObjects != 1 {
		t.Fatalf("store holds %d objects after one job, want 1", h.StoreObjects)
	}

	// c.Run wakes when the job turns terminal; the engine counts it done
	// just after, and the worker leaves the inflight gauge after that.
	inflight := reg.Gauge("sacd_inflight_workers", "")
	for deadline := time.Now().Add(10 * time.Second); inflight.Value() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	accepted := reg.Counter("sacd_jobs_accepted_total", "").Value()
	done := reg.Counter("sacd_jobs_done_total", "").Value()
	if accepted != 1 || done != 1 {
		t.Fatalf("job counters wrong: %v accepted, %v done", accepted, done)
	}
	if misses := reg.Counter("sacd_store_misses_total", "").Value(); misses != 1 {
		t.Fatalf("first job should miss the store once, missed %v times", misses)
	}
	if v := inflight.Value(); v != 0 {
		t.Fatalf("inflight gauge %v at rest, want 0", v)
	}
}

// slowTestRequest is a cell heavy enough (hundreds of ms) that a cancel
// reliably lands while it is queued or running.
func slowTestRequest(benchmark, org string) client.JobRequest {
	cfg := tinyConfig()
	cfg.WorkloadScale = 64
	return client.JobRequest{Benchmark: benchmark, Org: org, Config: &cfg}
}

// TestCancelQueuedJob pins the steal-cancel endpoint's queued path: a job
// canceled before a worker picks it up turns terminal "canceled" without
// ever running, its result answers 410, and cancellation is idempotent.
func TestCancelQueuedJob(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	ctx := context.Background()

	// One slow job occupies the single worker; the second stays queued.
	running, err := submit(ctx, c, slowTestRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := submit(ctx, c, slowTestRequest("SN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateCanceled {
		t.Fatalf("canceled queued job state = %s, want canceled", st.State)
	}
	if st.StartedAt != nil {
		t.Fatal("canceled-while-queued job claims to have started")
	}
	if _, err := st.Outcome(); err == nil || st.Result != nil {
		t.Fatal("a canceled job's status decoded to a result")
	}
	// Idempotent: canceling again answers the same terminal status.
	st2, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != client.StateCanceled {
		t.Fatalf("second cancel state = %s, want canceled", st2.State)
	}
	// The running job is untouched by its neighbor's cancellation.
	fin, err := c.Wait(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != client.StateDone {
		t.Fatalf("running job finished %s, want done", fin.State)
	}
}

// TestCancelRunningJob pins the running path: cancel aborts the in-flight
// simulation (the worker frees up promptly) and the job lands terminal
// "canceled", not failed or done.
func TestCancelRunningJob(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := submit(ctx, c, slowTestRequest("GEMM", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running so the cancel exercises the
	// in-flight path, not the queued one.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == client.StateRunning {
			break
		}
		if cur.Done() {
			t.Fatalf("job finished (%s) before it could be canceled; slow request too fast", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != client.StateCanceled {
		t.Fatalf("canceled running job state = %s (%s), want canceled", fin.State, fin.Error)
	}
	// The freed worker must accept and finish new work.
	next, err := c.Run(ctx, tinyRequest("BP", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Cycles <= 0 {
		t.Fatalf("post-cancel job returned bogus cycles %d", next.Cycles)
	}
}

// TestCancelUnknownJob pins the 404 path.
func TestCancelUnknownJob(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	_, err := c.Cancel(context.Background(), "no-such-job")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("cancel of unknown job: err=%v, want 404", err)
	}
}
