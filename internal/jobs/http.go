package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/wire"
)

// Watch timeout bounds. A request naming no timeout_ms long-polls for
// DefaultWatchTimeout; requests beyond MaxWatchTimeout are clamped so an
// abandoned connection cannot pin goroutines for hours.
const (
	DefaultWatchTimeout = 30 * time.Second
	MaxWatchTimeout     = 5 * time.Minute
)

// Mount registers the jobs API on mux — the same four routes, shapes and
// status codes on sacd and on saccoord, so a client cannot tell which it
// talks to:
//
//	POST   /v1/jobs:batch  submit up to MaxBatch   → 202 BatchResponse
//	GET    /v1/jobs:watch  long-poll until all end → 200 WatchResponse
//	GET    /v1/jobs/{id}   job status              → 200 JobStatus
//	DELETE /v1/jobs/{id}   cancel a job            → 200 JobStatus
//
// Every status a route writes carries a done job's result bytes inline.
// Every error response is JSON: {"error": "..."} with the status code
// carrying the semantics (400 invalid request, 404 unknown job, 413 a body
// past MaxBodyBytes, 429 and 503 for an AdmitError, with Retry-After when the
// daemon sizes one).
func (t *Table) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs:batch", t.handleBatch)
	mux.HandleFunc("GET /v1/jobs:watch", t.handleWatch)
	mux.HandleFunc("GET /v1/jobs/{id}", statusRoute(t.Status))
	mux.HandleFunc("DELETE /v1/jobs/{id}", statusRoute(t.Cancel))
}

// WriteJSON writes v with a status code; encode failures are unrecoverable
// mid-response and ignored. Bodies that carry a JobStatus go through the
// client package's hand-written encoder instead (writeBody), which writes the
// same bytes.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody writes the JSON body fill appends, plus json.Encoder's trailing
// newline, with a status code.
func writeBody(w http.ResponseWriter, code int, fill func(b []byte) []byte) {
	bp := wire.GetBuf()
	b := append(fill(*bp), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
	*bp = b[:0]
	wire.PutBuf(bp)
}

// WriteError writes the {"error": ...} body every non-2xx response carries.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// MaxBodyBytes bounds every request body either daemon reads, 413 past it:
// 4 KiB for each of client.MaxBatch requests (one with an explicit config is
// about 720 bytes), room for long fault plans and whitespace.
const MaxBodyBytes = client.MaxBatch * 4 << 10

// DecodeBody reads a JSON request body, bounded by MaxBodyBytes, and decodes
// it into v with client.Unmarshal, answering 413 or 400 itself on failure.
// Trailing bytes after the value are an error, as they are to
// json.Unmarshal.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	b, err := wire.ReadAll(*bp, http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	*bp = b[:0]
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	case err != nil:
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return false
	}
	if err := client.Unmarshal(b, v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// handleBatch is the one submission handler. The X-Sacd-Timeout-Ms header
// (a client's context deadline) applies to every item naming no timeout_ms.
// Items settled in admission carry their result bytes inline and no id, so a
// warm batch is one round trip end to end.
func (t *Table) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq client.BatchRequest
	if !DecodeBody(w, r, &breq) {
		return
	}
	reqs := breq.Jobs
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
	case itemErrs != nil:
		// Per-item errors ("" = the item was fine, rejected only because
		// the batch is all-or-nothing); the top-level Error, all a client's
		// APIError keeps, counts them and names the first.
		resp := client.BatchResponse{Jobs: make([]client.BatchItem, len(itemErrs))}
		n, first := 0, -1
		for i, e := range itemErrs {
			if e != "" {
				resp.Jobs[i].Error = e
				if n++; first < 0 {
					first = i
				}
			}
		}
		resp.Error = fmt.Sprintf("batch rejected: %d of %d jobs invalid; job %d: %s",
			n, len(itemErrs), first, itemErrs[first])
		WriteJSON(w, http.StatusBadRequest, resp)
	default:
		// A client.BatchResponse of accepted items: no error, every item a
		// status.
		writeBody(w, http.StatusAccepted, func(b []byte) []byte {
			b = append(b, `{"jobs":[`...)
			for i, j := range batch {
				if i > 0 {
					b = append(b, ',')
				}
				st := t.status(j)
				b = append(b, `{"status":`...)
				b = append(client.AppendStatus(b, &st), '}')
			}
			return append(b, "]}"...)
		})
	}
}

// statusRoute answers with what of returns for the job the path names: its
// status (Status), or its status after a cancel (Cancel, idempotent), a done
// job's result bytes inline either way.
func statusRoute(of func(id string) (client.JobStatus, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := of(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		writeBody(w, http.StatusOK, func(b []byte) []byte { return client.AppendStatus(b, &st) })
	}
}

func (t *Table) handleWatch(w http.ResponseWriter, r *http.Request) {
	ids, timeout, err := parseWatch(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := t.Watch(r.Context(), ids, timeout)
	if err != nil {
		// Only ctx cancellation errors out: the client is gone, there is no
		// one left to answer.
		return
	}
	writeBody(w, http.StatusOK, func(b []byte) []byte { return client.AppendWatch(b, &resp) })
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

// Watch blocks until every one of ids is terminal, the timeout passes or
// ctx ends (a closed client connection), then returns the terminal statuses
// among ids, a done job's result bytes inline, and the ids the table does
// not hold; an unknown id answers at once. Ctx's end is an error; a timeout
// answers the terminal subset, so a client re-arms over the rest. A caller
// collecting a batch parks one request, not one per job or completion.
func (t *Table) Watch(ctx context.Context, ids []string, timeout time.Duration) (client.WatchResponse, error) {
	var resp client.WatchResponse
	var pending []*Job
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		switch j, fin := t.find(id); {
		case fin != nil:
			resp.Jobs = append(resp.Jobs, fin.st)
		case j != nil:
			pending = append(pending, j)
		default:
			resp.Unknown = append(resp.Unknown, id)
		}
	}
	// scan moves terminal jobs into the response, swapping each to the back
	// of pending and shrinking it, so parked keeps every job the call lists
	// its wake channel on.
	scan := func() {
		for i := len(pending) - 1; i >= 0; i-- {
			if j := pending[i]; j.over() {
				resp.Jobs = append(resp.Jobs, t.status(j))
				last := len(pending) - 1
				pending[i], pending[last] = pending[last], j
				pending = pending[:last]
			}
		}
	}
	scan()
	if len(resp.Unknown) > 0 || len(pending) == 0 {
		return resp, nil
	}

	// One wake channel for the whole call, on every pending job's watcher
	// list: settle signals it after publishing the job's terminal state, so
	// a job that settles before it is listed is caught by the next rescan,
	// and one that settles after signals. The buffer keeps a signal that
	// arrives while the call rescans.
	wake := make(chan struct{}, 1)
	parked := pending
	for _, j := range parked {
		j.mu.Lock()
		j.watchers = append(j.watchers, wake)
		j.mu.Unlock()
	}
	defer func() {
		for _, j := range parked {
			j.mu.Lock()
			if i := slices.Index(j.watchers, wake); i >= 0 {
				j.watchers = slices.Delete(j.watchers, i, i+1)
			}
			j.mu.Unlock()
		}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		scan()
		if len(pending) == 0 {
			return resp, nil
		}
		select {
		case <-wake:
		case <-timer.C:
			scan()
			return resp, nil
		case <-ctx.Done():
			return client.WatchResponse{}, ctx.Err()
		}
	}
}
