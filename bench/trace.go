package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Spans are recorded by the harness from outside the program: around the
// public calls it makes and around the http.Handlers and RoundTrippers it
// wraps. They stay in memory and are written out once, when the run ends.

// Trace tracks (Chrome trace tids). obs.NewTracer names tids 0-4 for the
// simulator's own tracks, so the harness starts above them.
const (
	tidClient0 = 10 // client goroutine i records on tidClient0+i
	tidServer  = 20 // sacd / worker handlers
	tidCoord   = 21 // saccoord handler
	tidEdge    = 22 // coordinator → worker round trips
)

// spanHeader carries a client span's id to the handler it reaches, so the
// handler's span becomes its child.
const spanHeader = "X-Bench-Span"

type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	tid        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer collects spans while on; off (and nil) it records nothing, so the
// untraced passes of a traced run pay one atomic load per site.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int32, tid int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, tid: tid, start: now, end: now})
	t.mu.Unlock()
	return id
}

// end closes span id (a no-op for -1).
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanTotals is the per-name aggregate of a trace: summed duration, the part
// of it child spans cover, and the span count.
type spanTotals struct {
	total, children int64
	count           int
}

func (s spanTotals) self() int64 { return s.total - s.children }

// aggregate sums spans by name. A layer's self time is its spans' duration
// minus the part of those intervals their child spans cover.
func (t *tracer) aggregate() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		d := s.end - s.start
		a := out[s.name]
		a.total += d
		a.count++
		out[s.name] = a
		if s.parent >= 0 {
			p := out[t.spans[s.parent].name]
			p.children += d
			out[t.spans[s.parent].name] = p
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (Perfetto loads it) through
// obs.Tracer, whose Complete events take host microseconds.
func (t *tracer) writeChrome(path string) error {
	ot := obs.NewTracer()
	t.mu.Lock()
	for i, s := range t.spans {
		ot.Complete("bench", s.name, s.start/1000, max((s.end-s.start)/1000, 1), int(s.tid),
			obs.A("span", i), obs.A("parent", int(s.parent)))
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ot.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan marks ctx so the round trips made under it carry span id.
func withSpan(ctx context.Context, id int32) context.Context {
	if id < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanTransport stamps outgoing requests with the span id found in their
// context and, when name is set, records each round trip as a span of its
// own (the coordinator → worker edge).
type spanTransport struct {
	next http.RoundTripper
	tr   *tracer
	name string // "" = only propagate
	tid  int32
}

func (st spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int32); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	if st.name == "" || req.Method != http.MethodPost {
		return st.next.RoundTrip(req)
	}
	id := st.tr.begin(st.name, -1, st.tid)
	resp, err := st.next.RoundTrip(req)
	st.tr.end(id)
	return resp, err
}

// spanHandler wraps an http.Handler so every request it serves is a span,
// the child of the client span named in the request header when there is one.
// Job submissions (POST) are recorded as <layer>.handle; the other job calls
// — in these workloads the long-poll watch, which is parked waiting — as
// <layer>.watch.
func spanHandler(tr *tracer, layer string, tid int32, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int32(-1)
		if h := r.Header.Get(spanHeader); h != "" {
			if n, err := strconv.Atoi(h); err == nil {
				parent = int32(n)
			}
		}
		var name string
		switch {
		case !strings.HasPrefix(r.URL.Path, "/v1/jobs"):
			next.ServeHTTP(w, r) // fleet housekeeping: heartbeats, registration
			return
		case r.Method == http.MethodPost:
			name = layer + ".handle"
		default:
			name = layer + ".watch"
		}
		id := tr.begin(name, parent, tid)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}
