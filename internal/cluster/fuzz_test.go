package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/client"
)

// FuzzWorkersHTTP feeds arbitrary bodies to the coordinator's register and
// heartbeat routes — the fleet-membership decoder every worker on the
// network can reach. Whatever arrives, the handler must not panic, must
// answer 200, 204, 400 or 404, must answer errors in JSON, and must leave
// the worker table and the ring agreeing: an accepted registration is live
// and placeable, and no body evicts a worker that was there before it.
func FuzzWorkersHTTP(f *testing.F) {
	big := strings.Repeat("w", 1<<12)
	f.Add(uint8(0), []byte(`{"id":"worker-a","url":"http://127.0.0.1:1"}`))
	f.Add(uint8(0), []byte(`{"id":"w0","url":"http://127.0.0.1:2"}`)) // re-registration
	f.Add(uint8(0), []byte(`{"id":"worker-a","url":`))                // truncated
	f.Add(uint8(0), []byte(`{"id":"","url":""}`))
	f.Add(uint8(0), []byte(`{"id":"`+big+`","url":"http://`+big+`"}`)) // oversized
	f.Add(uint8(1), []byte(`{"status":"healthy","workers":2,"inflight":1,"queue_depth":3}`))
	f.Add(uint8(1), []byte(`{"status":"draining","reasons":["a"`))
	f.Add(uint8(1), []byte(`{"status":"`+big+`","reasons":["`+big+`"]}`))
	f.Add(uint8(1), []byte(`{"workers":1e99}`))
	f.Add(uint8(2), []byte(`{}`))

	f.Fuzz(func(t *testing.T, route uint8, data []byte) {
		route %= 3
		// A coordinator per input: registrations accumulate in the ring.
		c := New(Config{})
		defer c.Close()
		if _, err := c.Register(client.WorkerInfo{ID: "w0", URL: "http://127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		r := &http.Request{Method: http.MethodPost, Header: http.Header{},
			Body: io.NopCloser(bytes.NewReader(data))}
		switch route {
		case 0:
			r.URL = &url.URL{Path: "/v1/workers"}
		case 1:
			r.URL = &url.URL{Path: "/v1/workers/w0/heartbeat"}
		case 2:
			r.URL = &url.URL{Path: "/v1/workers/ghost/heartbeat"}
		}
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, r)

		switch w.Code {
		case http.StatusNoContent:
			if route != 1 {
				t.Fatalf("204 for route %d input %q: only a known worker's heartbeat is acknowledged", route, data)
			}
		case http.StatusOK:
			var info client.WorkerInfo
			if route != 0 || json.NewDecoder(bytes.NewReader(data)).Decode(&info) != nil {
				t.Fatalf("200 for route %d input %q", route, data)
			}
			if !slices.Contains(c.ring.Members(), info.ID) {
				t.Fatalf("registered worker %q is not in the ring", info.ID)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("non-JSON error body %q for route %d input %q", w.Body.Bytes(), route, data)
			}
		default:
			t.Fatalf("status %d for route %d input %q", w.Code, route, data)
		}
		if !slices.Contains(c.ring.Members(), "w0") {
			t.Fatalf("route %d input %q evicted a registered worker", route, data)
		}
		fs := c.Fleet()
		if fs.Live != len(fs.Workers) {
			t.Fatalf("ring holds %d workers, table %d, after route %d input %q", fs.Live, len(fs.Workers), route, data)
		}
	})
}
