package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/client"
)

// Watch timeout bounds. A request naming no timeout_ms long-polls for
// DefaultWatchTimeout; requests beyond MaxWatchTimeout are clamped so an
// abandoned connection cannot pin goroutines for hours.
const (
	DefaultWatchTimeout = 30 * time.Second
	MaxWatchTimeout     = 5 * time.Minute
)

// Mount registers the jobs API on mux — the same six routes, shapes and
// status codes on sacd and on saccoord, so a client cannot tell which it
// talks to:
//
//	POST   /v1/jobs             submit a job            → 202 JobStatus
//	POST   /v1/jobs:batch       submit up to MaxBatch   → 202 BatchResponse
//	GET    /v1/jobs:watch       long-poll for terminals → 200 WatchResponse
//	GET    /v1/jobs/{id}        job status              → 200 JobStatus
//	DELETE /v1/jobs/{id}        cancel a job            → 200 JobStatus
//	GET    /v1/jobs/{id}/result finished job's result   → 200 stats.Run
//
// Every error response is JSON: {"error": "..."} with the status code
// carrying the semantics (400 invalid request, 404 unknown job, 409 result
// not ready, 410 job expired or canceled, 429 and 503 for an AdmitError,
// with Retry-After when the daemon sizes one).
func (t *Table) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", t.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", t.handleBatch)
	mux.HandleFunc("GET /v1/jobs:watch", t.handleWatch)
	mux.HandleFunc("GET /v1/jobs/{id}", t.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", t.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", t.handleResult)
}

// WriteJSON writes v with a status code; encode failures are unrecoverable
// mid-response and ignored. Bodies that carry a JobStatus go through the
// status encoder instead (encode.go), which writes the same bytes.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeStatus writes one JobStatus body through the status encoder
// (encode.go).
func writeStatus(w http.ResponseWriter, code int, st *client.JobStatus) {
	writeBody(w, code, func(b []byte) []byte { return appendStatus(b, st) })
}

// WriteError writes the {"error": ...} body every non-2xx response carries.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DecodeBody decodes a JSON request body into v, answering 400 itself on
// failure.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

func wantResults(r *http.Request) bool {
	v := r.URL.Query().Get("results")
	return v == "1" || v == "true"
}

func (t *Table) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.JobRequest
	if DecodeBody(w, r, &req) {
		t.serveAdmit(w, r, []client.JobRequest{req}, true)
	}
}

func (t *Table) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq client.BatchRequest
	if DecodeBody(w, r, &breq) {
		t.serveAdmit(w, r, breq.Jobs, false)
	}
}

// serveAdmit is the one submission handler; POST /v1/jobs is a batch of one
// answered in the single-job shape. The X-Sacd-Timeout-Ms header is how a
// client propagates its context deadline; it applies to every item that
// names no timeout_ms of its own. With ?results=1, items already done in the
// response (warm estimate cells, memo recalls) carry their result bytes
// inline, so a warm batch is one round trip end to end.
func (t *Table) serveAdmit(w http.ResponseWriter, r *http.Request, reqs []client.JobRequest, single bool) {
	if v := r.Header.Get(client.TimeoutHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			WriteError(w, http.StatusBadRequest, "invalid %s header %q", client.TimeoutHeader, v)
			return
		}
		for i := range reqs {
			if reqs[i].TimeoutMS == 0 {
				reqs[i].TimeoutMS = ms
			}
		}
	}
	batch, itemErrs, err := t.admit(reqs)
	var refused *AdmitError
	switch {
	case errors.As(err, &refused):
		if t.cfg.RetryAfter != nil {
			w.Header().Set("Retry-After", strconv.Itoa(t.cfg.RetryAfter()))
		}
		WriteError(w, refused.Code, "%v", err)
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
	case itemErrs != nil && single:
		WriteError(w, http.StatusBadRequest, "%s", itemErrs[0])
	case itemErrs != nil:
		// Per-item errors ("" = the item was fine, rejected only because
		// the batch is all-or-nothing); the top-level Error keeps the shape
		// the client's retry loop understands.
		resp := client.BatchResponse{Jobs: make([]client.BatchItem, len(itemErrs))}
		n := 0
		for i, e := range itemErrs {
			if e != "" {
				resp.Jobs[i].Error = e
				n++
			}
		}
		resp.Error = fmt.Sprintf("batch rejected: %d of %d jobs invalid", n, len(itemErrs))
		WriteJSON(w, http.StatusBadRequest, resp)
	case single:
		st := t.status(batch[0], wantResults(r))
		writeStatus(w, http.StatusAccepted, &st)
	default:
		// A client.BatchResponse of accepted items: no error, every item a
		// status.
		withResults := wantResults(r)
		writeBody(w, http.StatusAccepted, func(b []byte) []byte {
			b = append(b, `{"jobs":[`...)
			for i, j := range batch {
				if i > 0 {
					b = append(b, ',')
				}
				st := t.status(j, withResults)
				b = append(b, `{"status":`...)
				b = append(appendStatus(b, &st), '}')
			}
			return append(b, "]}"...)
		})
	}
}

func (t *Table) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := t.Status(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeStatus(w, http.StatusOK, &st)
}

// handleCancel answers with the job's (possibly already terminal) status:
// cancellation is idempotent.
func (t *Table) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := t.Cancel(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeStatus(w, http.StatusOK, &st)
}

func (t *Table) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	raw, st, ok := t.ResultRaw(id)
	switch {
	case !ok:
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
	case st.State == client.StateFailed:
		WriteError(w, http.StatusInternalServerError, "job %s failed: %s", id, st.Error)
	case st.State == client.StateExpired || st.State == client.StateCanceled:
		WriteError(w, http.StatusGone, "job %s %s: %s", id, st.State, st.Error)
	case st.State != client.StateDone:
		WriteError(w, http.StatusConflict, "job %s is %s, result not ready", id, st.State)
	case raw == nil:
		WriteError(w, http.StatusInternalServerError, "result bytes unavailable")
	default:
		// The bytes go out as stored or relayed; the trailing newline keeps
		// the body identical to what a json.Encoder would have written.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
		_, _ = w.Write([]byte{'\n'})
	}
}

func (t *Table) handleWatch(w http.ResponseWriter, r *http.Request) {
	ids, timeout, err := parseWatch(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := t.Watch(r.Context(), ids, timeout, wantResults(r))
	if err != nil {
		// Only ctx cancellation errors out: the client is gone, there is no
		// one left to answer.
		return
	}
	writeBody(w, http.StatusOK, func(b []byte) []byte { return appendWatch(b, &resp) })
}

// parseWatch extracts a jobs:watch request's id list (comma-separated ids=
// values) and long-poll timeout.
func parseWatch(r *http.Request) (ids []string, timeout time.Duration, err error) {
	q := r.URL.Query()
	for _, v := range q["ids"] {
		for _, id := range strings.Split(v, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return nil, 0, errors.New("missing ids parameter")
	}
	if len(ids) > client.MaxBatch {
		return nil, 0, fmt.Errorf("watching %d jobs exceeds the limit of %d", len(ids), client.MaxBatch)
	}
	timeout = DefaultWatchTimeout
	if v := q.Get("timeout_ms"); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || ms < 0 {
			return nil, 0, fmt.Errorf("bad timeout_ms %q", v)
		}
		timeout = min(time.Duration(ms)*time.Millisecond, MaxWatchTimeout)
	}
	return ids, timeout, nil
}

// Watch blocks until at least one of ids reaches a terminal state, the
// timeout passes, or ctx is canceled (a closed client connection), then
// returns every terminal status among ids — results inline when withResults
// — plus the ids the table does not hold. It answers immediately when any
// watched job is already terminal or unknown. Ctx cancellation is an error;
// a bare timeout is an empty Jobs list, so clients re-arm without
// special-casing. One parked request replaces per-job interval polling: an
// idle sweep holds one open connection instead of issuing O(jobs × rate).
func (t *Table) Watch(ctx context.Context, ids []string, timeout time.Duration, withResults bool) (client.WatchResponse, error) {
	var resp client.WatchResponse
	var pending []*Job
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if j := t.Get(id); j == nil {
			resp.Unknown = append(resp.Unknown, id)
		} else {
			pending = append(pending, j)
		}
	}
	// scan moves the terminal jobs out of pending into the response.
	scan := func() {
		still := pending[:0]
		for _, j := range pending {
			select {
			case <-j.doneCh:
				resp.Jobs = append(resp.Jobs, t.status(j, withResults))
			default:
				still = append(still, j)
			}
		}
		pending = still
	}
	scan()
	if len(resp.Jobs) > 0 || len(resp.Unknown) > 0 || len(pending) == 0 {
		return resp, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One parked goroutine per pending job; all exit via wctx when the first
	// fires (the buffered channel absorbs one racing winner, the non-blocking
	// send drops the rest).
	fired := make(chan struct{}, 1)
	for _, j := range pending {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				select {
				case fired <- struct{}{}:
				default:
				}
			case <-wctx.Done():
			}
		}(j.doneCh)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-fired:
	case <-timer.C:
		// Answer with whatever the final scan finds (usually nothing — the
		// empty response tells the client to re-arm).
	case <-ctx.Done():
		return client.WatchResponse{}, ctx.Err()
	}
	scan()
	return resp, nil
}
