package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
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
func testDaemon(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s, c, _ := testDaemonURL(t, cfg)
	return s, c
}

// testDaemonURL is testDaemon that also returns the server's base URL.
func testDaemonURL(t *testing.T, cfg Config) (*Server, *client.Client, string) {
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

func TestSubmitRunAndFetchResult(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
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
	res, err := c.Result(ctx, st.ID)
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
		{Benchmark: "RN", Org: "SAC", Priority: "no-such-lane"},
		{Benchmark: "RN", Org: "SAC", Faults: "not a fault plan"},
		// A duration past ~292 years would wrap into a deadline already
		// passed.
		{Benchmark: "RN", Org: "SAC", Fidelity: client.FidelityEstimate, TimeoutMS: 1e13},
	} {
		_, err := c.Submit(ctx, req)
		var apiErr *client.APIError
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("request %+v: want 400, got %v", req, err)
		}
	}

	// The same timeout through the header, which fills timeout_ms before
	// the request resolves. No client sets a deadline that far out, so the
	// request is sent by hand.
	body := strings.NewReader(`{"benchmark":"RN","org":"SAC","fidelity":"estimate"}`)
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", body)
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

func TestResultBeforeDone409(t *testing.T) {
	s := New(Config{Workers: 1})
	// Workers never started: the job stays queued.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	ctx := context.Background()
	st, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Result(ctx, st.ID)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 409 {
		t.Fatalf("pending result: want 409, got %v", err)
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
		if _, err := c.Submit(ctx, tinyRequest("RN", "SAC")); err != nil {
			t.Fatalf("submit %d within cap failed: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("overflow: want 429, got %v", err)
	}
}

func TestPriorityPopOrder(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16})
	// Enqueue before starting workers so lane order, not arrival order,
	// decides execution.
	var ids []string
	for _, pr := range []string{client.PriorityBatch, client.PriorityNormal, client.PriorityHigh} {
		req := tinyRequest("RN", "SAC")
		req.Priority = pr
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if st, _ := s.Status(ids[0]); st.QueueAhead != 2 {
		t.Fatalf("batch job has %d ahead, want 2 (both other lanes)", st.QueueAhead)
	}
	if st, _ := s.Status(ids[2]); st.QueueAhead != 0 {
		t.Fatalf("high job has %d ahead, want 0", st.QueueAhead)
	}
	var order []string
	for i := 0; i < 3; i++ {
		j := s.pop()
		order = append(order, j.ID)
	}
	want := []string{ids[2], ids[1], ids[0]} // high, normal, batch
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("pop order %v, want %v", order, want)
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
			st, err := c.Submit(ctx, tinyRequest("BP", "SAC"))
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
			res, err := c.Result(ctx, st.ID)
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
	jst, err := c2.Submit(ctx, tinyRequest("RN", "memory-side"))
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
	res2, err := c2.Result(ctx, jst.ID)
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
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := testDaemon(t, Config{Workers: 3, Store: st, Registry: reg})
	ctx := context.Background()

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

	snap := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			snap[fam.Name] += s.Value
		}
	}
	if snap["sacd_jobs_accepted_total"] != 1 || snap["sacd_jobs_done_total"] != 1 {
		t.Fatalf("job counters wrong: %v", snap)
	}
	if snap["sacd_cache_misses_total"] != 1 {
		t.Fatalf("first job should miss the store once: %v", snap)
	}
	if snap["sacd_inflight_workers"] != 0 {
		t.Fatalf("inflight gauge nonzero at rest: %v", snap)
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
	running, err := c.Submit(ctx, slowTestRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, slowTestRequest("SN", "SAC"))
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
	if _, err := c.Result(ctx, queued.ID); err == nil {
		t.Fatal("result of a canceled job did not error")
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

	st, err := c.Submit(ctx, slowTestRequest("GEMM", "SAC"))
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
