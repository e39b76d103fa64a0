package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func stubDaemon(t *testing.T, handler http.HandlerFunc) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return New(srv.URL, WithBackoff(time.Millisecond, 4*time.Millisecond)), srv
}

func TestRetriesBackpressureThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateQueued})
	})
	st, err := c.Submit(context.Background(), JobRequest{Benchmark: "BP", Org: "SAC"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("got id=%q after %d calls, want j1 after 3", st.ID, calls.Load())
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown benchmark"})
	})
	_, err := c.Submit(context.Background(), JobRequest{Benchmark: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if apiErr.Message != "unknown benchmark" {
		t.Fatalf("error body not surfaced: %q", apiErr.Message)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 retried %d times; permanent errors must not retry", calls.Load()-1)
	}
}

func TestRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 APIError, got %v", err)
	}
	if calls.Load() != 5 { // 1 initial + 4 retries
		t.Fatalf("made %d calls, want 5", calls.Load())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("canceled context did not error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("canceled context kept retrying")
	}
	if calls.Load() > 1 {
		t.Fatalf("canceled context made %d calls", calls.Load())
	}
}

func TestConnectionErrorRetried(t *testing.T) {
	// A client pointed at a dead port must retry then give up with the
	// transport error, not panic or hang.
	c := New("http://127.0.0.1:1", WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("dead endpoint returned no error")
	}
}

// TestWaitPollsToTerminalState: Wait re-arms the long-poll on empty (timed
// out) watch responses and returns the terminal status when one arrives.
func TestWaitPollsToTerminalState(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs:watch" || r.URL.Query().Get("ids") != "j1" {
			t.Errorf("unexpected request %s", r.URL)
		}
		var resp WatchResponse
		if calls.Add(1) >= 3 {
			resp.Jobs = []JobStatus{{ID: "j1", State: StateDone, Source: SourceSim}}
		}
		json.NewEncoder(w).Encode(resp)
	})
	st, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || calls.Load() != 3 {
		t.Fatalf("state=%s after %d watches", st.State, calls.Load())
	}
}

func TestRetryDelayFullJitterBounds(t *testing.T) {
	c := New("http://x", WithBackoff(100*time.Millisecond, 2*time.Second))
	for attempt := 1; attempt <= 8; attempt++ {
		ceil := 100 * time.Millisecond << (attempt - 1)
		if ceil > 2*time.Second {
			ceil = 2 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := c.retryDelay(attempt, nil)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0,%v]", attempt, d, ceil)
			}
		}
	}
}

func TestRetryDelayHonorsRetryAfterFloor(t *testing.T) {
	c := New("http://x", WithBackoff(time.Millisecond, 2*time.Millisecond))
	hint := &APIError{StatusCode: 429, RetryAfter: 250 * time.Millisecond}
	for i := 0; i < 20; i++ {
		if d := c.retryDelay(1, hint); d < 250*time.Millisecond {
			t.Fatalf("delay %v below server Retry-After floor", d)
		}
	}
	// An absurd server hint is capped so clients can't be parked for hours.
	parked := &APIError{StatusCode: 503, RetryAfter: time.Hour}
	if d := c.retryDelay(1, parked); d != maxRetryAfter {
		t.Fatalf("got %v, want Retry-After capped at %v", d, maxRetryAfter)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0.5", 500 * time.Millisecond},
		{"-3", 0},
		{"garbage", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// HTTP-date form: a date ~2s out parses to a positive duration <= 2s.
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(date); d <= 0 || d > 2*time.Second {
		t.Errorf("parseRetryAfter(date) = %v, want (0, 2s]", d)
	}
	// A date in the past means "now", not a negative wait.
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("parseRetryAfter(past date) = %v, want 0", d)
	}
}

func TestSubmitRetryAfterSlowsRetry(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "shedding"})
			return
		}
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateQueued})
	})
	start := time.Now()
	st, err := c.Submit(context.Background(), JobRequest{Benchmark: "BP", Org: "SAC"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" {
		t.Fatalf("got id %q", st.ID)
	}
	if since := time.Since(start); since < 200*time.Millisecond {
		t.Fatalf("retried after %v; Retry-After 0.2s not honored", since)
	}
}

func TestSubmitPropagatesContextDeadlineHeader(t *testing.T) {
	var gotHeader atomic.Value
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(TimeoutHeader))
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateQueued})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, JobRequest{Benchmark: "BP", Org: "SAC"}); err != nil {
		t.Fatal(err)
	}
	h, _ := gotHeader.Load().(string)
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Fatalf("timeout header %q, want integer ms in (0, 5000]", h)
	}

	// An explicit TimeoutMS wins: the header is not sent.
	if _, err := c.Submit(ctx, JobRequest{Benchmark: "BP", Org: "SAC", TimeoutMS: 123}); err != nil {
		t.Fatal(err)
	}
	if h, _ := gotHeader.Load().(string); h != "" {
		t.Fatalf("header %q sent alongside explicit timeout_ms", h)
	}
}

// TestDefaultTransportTuned pins the default-transport satellite: a bare
// New must install the tuned transport (bounded dial/header phases, pooled
// idle connections for coordinator fan-out), and WithHTTPClient must still
// override it entirely.
func TestDefaultTransportTuned(t *testing.T) {
	c := New("http://example.invalid")
	tr, ok := c.hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", c.hc.Transport)
	}
	if tr.ResponseHeaderTimeout <= 0 || tr.TLSHandshakeTimeout <= 0 {
		t.Fatalf("hangable phases unbounded: header=%v tls=%v", tr.ResponseHeaderTimeout, tr.TLSHandshakeTimeout)
	}
	if tr.MaxIdleConnsPerHost < 16 {
		t.Fatalf("MaxIdleConnsPerHost = %d, too small for coordinator fan-out", tr.MaxIdleConnsPerHost)
	}
	custom := &http.Client{}
	if c2 := New("http://example.invalid", WithHTTPClient(custom)); c2.hc != custom {
		t.Fatal("WithHTTPClient did not override the default client")
	}
}

// TestCancelAPI pins the wire shape of DELETE /v1/jobs/{id}.
func TestCancelAPI(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete || r.URL.Path != "/v1/jobs/j1" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j1","state":"canceled"}`)
	}))
	defer srv.Close()
	st, err := New(srv.URL).Cancel(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || !st.Done() {
		t.Fatalf("cancel status = %+v, want terminal canceled", st)
	}
}

// TestWaitSurvivesBackpressuredStatusPoll pins the WaitAll backpressure
// contract (Wait is WaitAll of one id): a 429 watch does not fail the wait —
// the daemon's Retry-After hint floors the pause before the re-arm, and the
// very next watch after it sees the terminal state.
func TestWaitSurvivesBackpressuredStatusPoll(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.3")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(WatchResponse{Jobs: []JobStatus{{ID: "j1", State: StateDone}}})
	})
	// No transport-level retries: every watch is one HTTP request, so the
	// pacing we measure is WaitAll's own.
	WithRetries(0)(c)

	t0 := time.Now()
	st, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("backpressured wait failed: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d watch calls, want 2 (429 then done)", calls.Load())
	}
	if elapsed := time.Since(t0); elapsed < 250*time.Millisecond {
		t.Fatalf("wait re-armed after %v; Retry-After of 0.3s must floor the pause", elapsed)
	}
}

// TestWaitPermanentStatusErrorFails checks the other side of that contract:
// a non-temporary watch error still fails the wait immediately instead of
// re-arming forever.
func TestWaitPermanentStatusErrorFails(t *testing.T) {
	var calls atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	})
	_, err := c.Wait(context.Background(), "gone")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404 APIError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 polled %d times, want 1", calls.Load())
	}
}

// TestBatcherSurvivesBackpressuredWatch pins for Batcher the contract
// TestWaitSurvivesBackpressuredStatusPoll pins for WaitAll (both call
// rearm): the batch is accepted, the first watch is shed with 503 and a
// Retry-After, and the group re-arms after that floor instead of failing
// every member.
func TestBatcherSurvivesBackpressuredWatch(t *testing.T) {
	var watches atomic.Int64
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(BatchResponse{Jobs: []BatchItem{{Status: &JobStatus{ID: "j1", State: StateQueued}}}})
			return
		}
		if watches.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.3")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
			return
		}
		json.NewEncoder(w).Encode(WatchResponse{Jobs: []JobStatus{{
			ID: "j1", State: StateDone, Result: json.RawMessage(`{"Cycles":7}`)}}})
	})
	WithRetries(0)(c) // every watch is one HTTP request: the pacing is the Batcher's own

	t0 := time.Now()
	res, err := NewBatcher(c).Run(context.Background(), JobRequest{Benchmark: "BP"})
	if err != nil {
		t.Fatalf("backpressured watch failed the group: %v", err)
	}
	if res.Cycles != 7 {
		t.Fatalf("cycles %d, want 7", res.Cycles)
	}
	if watches.Load() != 2 {
		t.Fatalf("%d watch calls, want 2 (503 then done)", watches.Load())
	}
	if elapsed := time.Since(t0); elapsed < 250*time.Millisecond {
		t.Fatalf("group re-armed after %v; Retry-After of 0.3s must floor the pause", elapsed)
	}
}
