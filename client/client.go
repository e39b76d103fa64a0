package client

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// APIError is a non-2xx response from the daemon.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (0 = none). The retry
	// loop honors it as a floor under the jittered backoff, so a full or
	// restarting daemon controls its own comeback pacing.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sacd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Temporary reports whether retrying the request could succeed: 429 means
// queue backpressure, 503 a draining daemon (a restart may follow), and the
// remaining 5xx transient server trouble.
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Client talks to one sacd daemon.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a transient failure is retried (0
// disables retrying; default 4).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the first retry delay and its cap; the delay doubles per
// attempt (defaults 100ms and 2s).
func WithBackoff(first, max time.Duration) Option {
	return func(c *Client) {
		c.backoff, c.maxWait = first, max
	}
}

// DefaultTransport returns the tuned *http.Transport New installs when no
// WithHTTPClient override is given. Dial, TLS handshake and the wait for
// response headers are bounded, so a vanished host fails fast into the retry
// loop; the idle pool is sized for a saccoord's fan-out over a handful of
// workers; a 64-KiB write buffer takes a 64-cell batch body whole.
func DefaultTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 60 * time.Second,
		ExpectContinueTimeout: time.Second,
		MaxIdleConns:          512,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		WriteBufferSize:       64 << 10,
	}
}

// New returns a client for the daemon at baseURL (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Transport: DefaultTransport()},
		retries: 4,
		backoff: 100 * time.Millisecond,
		maxWait: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NoRetry returns a copy of c that makes every call once: a transient
// failure comes back at once instead of after c's retries and their
// Retry-After pauses. The copy shares c's transport and its connections.
func (c *Client) NoRetry() *Client {
	cp := *c
	cp.retries = 0
	return &cp
}

// do performs one API call with retries, decoding a 2xx JSON body into out
// (skipped when out is nil). The request body, if any, is re-sent verbatim
// on every attempt. Retry pacing uses full-jitter exponential backoff: a
// fleet of clients knocked back by one restarting daemon desynchronizes
// instead of returning as a thundering herd.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, hdr http.Header) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("sacd: giving up after %d attempts: %w (last error: %v)",
					attempt, ctx.Err(), lastErr)
			case <-time.After(c.retryDelay(attempt, lastErr)):
			}
		}
		err := c.once(ctx, method, path, body, out, hdr)
		if err == nil {
			return nil
		}
		lastErr = err
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			return err // permanent: 400, 404, 413, ...
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// maxRetryAfter caps how long a server-sent Retry-After can stall one
// attempt, so a confused daemon cannot park clients for hours.
const maxRetryAfter = 30 * time.Second

// retryDelay computes the wait before retry number attempt (1-based):
// full jitter — uniform in [0, min(maxWait, backoff·2^(attempt-1))] — with
// the server's Retry-After hint from the last failure as a floor.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	ceil := c.backoff
	for i := 1; i < attempt && ceil < c.maxWait; i++ {
		ceil *= 2
	}
	ceil = min(ceil, c.maxWait)
	delay := time.Duration(0)
	if ceil > 0 {
		delay = time.Duration(rand.Int63n(int64(ceil) + 1))
	}
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) {
		delay = max(delay, min(apiErr.RetryAfter, maxRetryAfter))
	}
	return delay
}

// parseRetryAfter reads a Retry-After header: integer (or fractional)
// seconds, or an HTTP date. 0 means absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(h, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// once performs a single HTTP round trip.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, hdr http.Header) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg := http.StatusText(resp.StatusCode)
		var eb errorBody
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
			if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
				msg = eb.Error
			}
		}
		return &APIError{
			StatusCode: resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	// Every decoded string and result is a copy, so the buffer goes back to
	// the pool.
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	b, err := wire.ReadAll(*bp, resp.Body)
	*bp = b[:0]
	if err != nil {
		return err
	}
	return Unmarshal(b, out)
}

// SubmitBatch enqueues up to MaxBatch jobs in one round trip and returns
// their statuses in request order. Admission is all-or-nothing: one invalid
// item rejects the batch with a 400 naming the first. A job settled in
// admission (a warm estimate cell, a memo recall) comes back done, its
// result inline and no id: there is nothing left to fetch. 429 and 503 are
// retried with jittered backoff under the daemon's Retry-After. ctx's
// deadline travels as the X-Sacd-Timeout-Ms header, so the daemon expires a
// job naming no TimeoutMS when the caller would stop waiting anyway.
func (c *Client) SubmitBatch(ctx context.Context, reqs []JobRequest) ([]JobStatus, error) {
	// The transport may still read a request body after the round trip
	// returns, so the body is an exact-size copy of the pooled encoding.
	bp := wire.GetBuf()
	*bp = appendBatchRequest(*bp, reqs)
	b := bytes.Clone(*bp)
	wire.PutBuf(bp)
	var hdr http.Header
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hdr = http.Header{TimeoutHeader: []string{strconv.FormatInt(ms, 10)}}
		}
	}
	resp := BatchResponse{statuses: make([]JobStatus, len(reqs))}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", b, &resp, hdr); err != nil {
		return nil, err
	}
	// Item i's status was decoded into statuses[i] unless the answer strayed;
	// a stray one sits above i, so copying it down loses none unread.
	sts := resp.statuses
	if len(sts) != len(resp.Jobs) {
		sts = make([]JobStatus, len(resp.Jobs))
	}
	for i, item := range resp.Jobs {
		if item.Status == nil {
			return nil, fmt.Errorf("sacd: batch item %d missing status (error: %s)", i, item.Error)
		}
		sts[i] = *item.Status
	}
	return sts, nil
}

// maxWatchPoll caps one watch long-poll's requested timeout safely under
// DefaultTransport's 60s ResponseHeaderTimeout: the server must answer
// (possibly with an empty re-arm response) before the transport gives up.
const maxWatchPoll = 45 * time.Second

// Watch long-polls the daemon until every one of ids is terminal or timeout
// passes (0, or anything past 45 s, asks for 45 s: under DefaultTransport's
// response-header timeout), returning the terminal statuses among
// ids — results inlined — and the ids the daemon does not know, which end
// the call at once. Short of some ids, the timeout passed: re-arm.
func (c *Client) Watch(ctx context.Context, ids []string, timeout time.Duration) (WatchResponse, error) {
	if timeout <= 0 || timeout > maxWatchPoll {
		timeout = maxWatchPoll
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return WatchResponse{}, ctx.Err()
	}
	q := url.Values{
		"ids":        []string{strings.Join(ids, ",")},
		"timeout_ms": []string{strconv.FormatInt(timeout.Milliseconds(), 10)},
	}
	var resp WatchResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs:watch?"+q.Encode(), nil, &resp, nil); err != nil {
		return WatchResponse{}, err
	}
	return resp, nil
}

// rearm is the rule for a backpressured watch (err is a 429/503 that outlived
// the retry loop): the watched jobs finish whether or not watches get
// through, so instead of failing the wait the caller re-arms after the
// submit retries' pacing, until ctx runs out. rearm reports whether err was
// such a refusal, having slept the delay (or until ctx ended) if so.
func (c *Client) rearm(ctx context.Context, err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !apiErr.Temporary() {
		return false
	}
	select {
	case <-ctx.Done():
	case <-time.After(c.retryDelay(1, err)):
	}
	return true
}

// UnknownError is WaitAll's error for ids the daemon does not hold: aged out
// of retention, or lost to a restart.
type UnknownError struct{ IDs []string }

func (e *UnknownError) Error() string {
	return fmt.Sprintf("sacd: %d watched jobs unknown to the daemon (first: %s)", len(e.IDs), e.IDs[0])
}

// WaitAll blocks until every listed job is terminal (or ctx expires) and
// returns the terminal statuses by id. It holds one open long-poll over the
// remaining jobs instead of polling each — one round trip per MaxBatch ids
// plus one per re-arm, not O(jobs × poll-rate). An empty id (a status settled
// in its batch response has none) is refused at once; an id the daemon does
// not know ends the wait with an *UnknownError beside the statuses collected
// so far. A backpressured watch re-arms (see rearm) instead of failing.
func (c *Client) WaitAll(ctx context.Context, ids []string) (map[string]JobStatus, error) {
	for i, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("sacd: wait item %d has no job id: only a pending job has one", i)
		}
	}
	out := make(map[string]JobStatus, len(ids))
	pending := append([]string(nil), ids...)
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("sacd: %d jobs still pending: %w", len(pending), err)
		}
		resp, err := c.Watch(ctx, pending[:min(len(pending), MaxBatch)], 0)
		if c.rearm(ctx, err) {
			continue
		}
		if err != nil {
			return out, err
		}
		for _, st := range resp.Jobs {
			out[st.ID] = st
		}
		if len(resp.Unknown) > 0 {
			return out, &UnknownError{IDs: resp.Unknown}
		}
		// A response short of some ids is a long-poll timeout: re-arm.
		next := pending[:0]
		for _, id := range pending {
			if _, settled := out[id]; !settled {
				next = append(next, id)
			}
		}
		pending = next
	}
	return out, nil
}

// Status fetches the current status of a job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st, nil); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires: WaitAll
// of one id, so it parks on the daemon's long-poll instead of polling.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	out, err := c.WaitAll(ctx, []string{id})
	return out[id], err
}

// Run submits a job as a batch of one, waits for it, and returns the result
// — the remote equivalent of sac.Run for one cell. Statuses carry a done
// job's result, so a warm cell costs one round trip (its status has no id),
// and any other a submit and a wait.
func (c *Client) Run(ctx context.Context, req JobRequest) (*stats.Run, error) {
	sts, err := c.SubmitBatch(ctx, []JobRequest{req})
	if err != nil {
		return nil, err
	}
	st := sts[0]
	if !st.Done() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	return st.Outcome()
}

// Outcome decodes a terminal status into its result. Every status carries a
// done job's result, so a done status without one is an error, not a reason
// for another round trip; any other state is an error that names it.
// A status without an id, settled in its batch response, is named by its key.
func (s JobStatus) Outcome() (*stats.Run, error) {
	name := cmp.Or(s.ID, s.Key)
	switch s.State {
	case StateDone:
		if len(s.Result) == 0 {
			return nil, fmt.Errorf("sacd: job %s done without its result", name)
		}
		var run stats.Run
		if err := json.Unmarshal(s.Result, &run); err != nil {
			return nil, fmt.Errorf("sacd: job %s result: %w", name, err)
		}
		return &run, nil
	case StateFailed:
		return nil, fmt.Errorf("sacd: job %s failed: %s", name, s.Error)
	default:
		return nil, fmt.Errorf("sacd: job %s %s: %s", name, s.State, s.Error)
	}
}

// Health fetches the daemon's health summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h, nil); err != nil {
		return Health{}, err
	}
	return h, nil
}

// Cancel asks the daemon to stop a job: a queued job terminates without
// running, a running job has its simulation context canceled. Canceling a
// job already in a terminal state is a no-op that returns its status. The
// coordinator uses this as the steal-cancel: when a job is re-dispatched to
// another worker, the original worker stops burning cycles on it.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st, nil); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Register announces a worker to a saccoord coordinator and returns the
// heartbeat cadence the coordinator expects. Registration is idempotent:
// re-registering an existing ID updates its URL and revives a worker whose
// heartbeats had lapsed.
func (c *Client) Register(ctx context.Context, info WorkerInfo) (RegisterResponse, error) {
	b, err := json.Marshal(info)
	if err != nil {
		return RegisterResponse{}, err
	}
	var r RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workers", b, &r, nil); err != nil {
		return RegisterResponse{}, err
	}
	return r, nil
}

// Heartbeat reports a worker's liveness and health to the coordinator. A
// 404 *APIError means the coordinator does not know the worker (it restarted
// or the registration lapsed); the caller should Register again.
func (c *Client) Heartbeat(ctx context.Context, id string, h Health) error {
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/workers/"+url.PathEscape(id)+"/heartbeat", b, nil, nil)
}

// Deregister removes a worker from the coordinator's placement ring — the
// graceful goodbye a draining worker sends so no new jobs land on it while
// its in-flight work finishes.
func (c *Client) Deregister(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers/"+url.PathEscape(id), nil, nil, nil)
}

// Fleet fetches a coordinator's worker table and fleet counters.
func (c *Client) Fleet(ctx context.Context) (FleetStatus, error) {
	var f FleetStatus
	if err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &f, nil); err != nil {
		return FleetStatus{}, err
	}
	return f, nil
}
