package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/server"
)

// stubTable is a table whose jobs finish inside admission with a canned
// result: real request resolution, no simulation.
func stubTable() *jobs.Table {
	var t *jobs.Table
	t = jobs.New(jobs.Config{
		Resolve: func(req client.JobRequest) (*jobs.Identity, error) {
			return server.ResolveRequest(req, "")
		},
		Admit: func(batch []*jobs.Job) error {
			for _, j := range batch {
				t.RunDirect(context.Background(), j)
			}
			return nil
		},
		Execute: func(context.Context, *jobs.Job) jobs.Outcome {
			return jobs.Outcome{Raw: json.RawMessage(`{"Cycles":1}`), Cycles: 1, Source: client.SourceSim}
		},
	})
	return t
}

// FuzzJobsHTTP feeds arbitrary bodies to the two submission routes and
// arbitrary query strings to the watch route — the one decoder both daemons
// expose to the network. Whatever arrives, the handler must not panic, must
// answer 200, 202 or a 4xx, and must answer in JSON.
func FuzzJobsHTTP(f *testing.F) {
	f.Add(uint8(0), []byte(`{"benchmark":"RN","org":"SAC"}`))
	f.Add(uint8(0), []byte(`{"benchmark":"RN","org":"SAC","timeout_ms":-1}`))
	f.Add(uint8(0), []byte(`{"benchmark":"RN","org":"SAC","timeout_ms":10000000000000}`))
	f.Add(uint8(0), []byte(`{"benchmark":"RN","org":"SAC","config":{"Chips":0}}`))
	f.Add(uint8(1), []byte(`{"jobs":[{"benchmark":"BP","org":"SAC","fidelity":"estimate"},{"benchmark":"nope","org":"SAC"}]}`))
	f.Add(uint8(1), []byte(`{"jobs":[]}`))
	f.Add(uint8(1), []byte(`{"jobs":null`))
	f.Add(uint8(2), []byte(`ids=a,b,,c&timeout_ms=0`))
	f.Add(uint8(2), []byte(`ids=%zz&timeout_ms=-5`))
	f.Add(uint8(2), []byte(`timeout_ms=99999999999999999999`))

	// A config replaces the preset wholesale, so the {"Chips":0} seed above
	// fails at Validate's first check; only a complete config with one field
	// off reaches the cache-geometry arithmetic behind it — or the eagerly
	// sized MSHR table an oversized MSHRPerSlice would ask for, or the SM and
	// warp slices an unbounded SMsPerChip or WarpsPerSM would.
	for _, set := range []func(*gpu.Config){
		func(c *gpu.Config) { c.L1Ways = 0 },
		func(c *gpu.Config) { c.L1Ways = -8 },
		func(c *gpu.Config) { c.LLCWays = 128 },
		func(c *gpu.Config) { c.MSHRPerSlice = 1 << 40 },
		func(c *gpu.Config) { c.SMsPerChip = 1 << 40 },
		func(c *gpu.Config) { c.WarpsPerSM = 1 << 40 },
	} {
		cfg := gpu.ScaledConfig()
		set(&cfg)
		body, err := json.Marshal(client.JobRequest{Benchmark: "RN", Org: "SAC", Config: &cfg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), body)
	}
	// A value with anything after it is a 400, never a job and never a
	// silently dropped second one.
	for _, body := range trailingBodies {
		f.Add(uint8(0), []byte(body))
	}

	mux := http.NewServeMux()
	stubTable().Mount(mux)
	f.Fuzz(func(t *testing.T, route uint8, data []byte) {
		r := &http.Request{Method: http.MethodPost, Header: http.Header{}, Body: http.NoBody}
		switch route % 3 {
		case 0:
			r.URL = &url.URL{Path: "/v1/jobs"}
			r.Body = io.NopCloser(bytes.NewReader(data))
		case 1:
			r.URL = &url.URL{Path: "/v1/jobs:batch"}
			r.Body = io.NopCloser(bytes.NewReader(data))
		case 2:
			r.Method = http.MethodGet
			r.URL = &url.URL{Path: "/v1/jobs:watch", RawQuery: string(data)}
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, r)
		if c := w.Code; c != http.StatusOK && c != http.StatusAccepted && c/100 != 4 {
			t.Fatalf("status %d for route %d input %q", c, route%3, data)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("non-JSON body %q for route %d input %q", w.Body.Bytes(), route%3, data)
		}
	})
}

// snEstimate is a valid submission; trailingBodies follow it with bytes a
// decoder must not ignore.
const snEstimate = `{"benchmark":"SN","org":"SAC","fidelity":"estimate"}`

var trailingBodies = []string{
	snEstimate + ` this is not json`,
	snEstimate + `{"benchmark":"BS","org":"SAC"}`,
}

// post sends body to route on a stub table and returns the response, which
// must be JSON.
func post(t *testing.T, route, body string) *httptest.ResponseRecorder {
	t.Helper()
	mux := http.NewServeMux()
	stubTable().Mount(mux)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
	if !json.Valid(w.Body.Bytes()) {
		t.Fatalf("%s: non-JSON body %q", route, w.Body.Bytes())
	}
	return w
}

// TestTrailingBytesRejected: a submission is one JSON value. Trailing text
// and a second concatenated job are both 400s, with nothing admitted.
func TestTrailingBytesRejected(t *testing.T) {
	for _, body := range trailingBodies {
		if w := post(t, "/v1/jobs", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, w.Code, w.Body.Bytes())
		}
		batch := `{"jobs":[` + snEstimate + `]}` + strings.TrimPrefix(body, snEstimate)
		if w := post(t, "/v1/jobs:batch", batch); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", batch, w.Code, w.Body.Bytes())
		}
	}
}

// TestUnknownFieldRejected: a submission naming a field the request or its
// config does not have, such as a misspelling or a field an older model had,
// is a 400 on both routes, never an answer for the model its known fields
// describe.
func TestUnknownFieldRejected(t *testing.T) {
	cfg := gpu.ScaledConfig()
	explicit, err := json.Marshal(client.JobRequest{Benchmark: "SN", Org: "SAC", Fidelity: "estimate", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, "/v1/jobs", string(explicit)); w.Code != http.StatusAccepted {
		t.Fatalf("%s: %d %s, want 202", explicit, w.Code, w.Body.Bytes())
	}
	for _, body := range []string{
		strings.Replace(string(explicit), `"config":{`, `"config":{"BanksPerChanel":4,`, 1),
		strings.Replace(string(explicit), `"SACOpts":{`, `"SACOpts":{"MinSamples":64,`, 1),
		strings.Replace(string(explicit), `"SACOpts":{`, `"SACOpts":{"ReuseKernelDecisions":false,`, 1),
		strings.TrimSuffix(snEstimate, "}") + `,"priority2":"batch"}`,
	} {
		if w := post(t, "/v1/jobs", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, w.Code, w.Body.Bytes())
		}
		if batch := `{"jobs":[` + body + `]}`; post(t, "/v1/jobs:batch", batch).Code != http.StatusBadRequest {
			t.Errorf("batch of %s: want 400", body)
		}
	}
}

// TestBodyBounded: a body past MaxBodyBytes is a 413 with the usual error
// body, even a valid submission padded with whitespace; at the bound the
// same padded batch is admitted.
func TestBodyBounded(t *testing.T) {
	batch := `{"jobs":[` + snEstimate + `]}`
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	if w := post(t, "/v1/jobs:batch", pad(batch, jobs.MaxBodyBytes)); w.Code != http.StatusAccepted {
		t.Fatalf("batch at the bound: %d %s, want 202", w.Code, w.Body.Bytes())
	}
	for route, body := range map[string]string{"/v1/jobs:batch": batch, "/v1/jobs": snEstimate} {
		w := post(t, route, pad(body, jobs.MaxBodyBytes+1))
		var e struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Fatalf("%s past the bound: %d %s, want 413 with an error", route, w.Code, w.Body.Bytes())
		}
	}
}

// FuzzRequestDecode is the request decoder's differential test: for any
// bytes, the decoder both daemons read bodies with fails exactly when
// strictUnmarshal does and otherwise yields the same JobRequest or
// BatchRequest. It must never panic.
func FuzzRequestDecode(f *testing.F) {
	cfg := gpu.ScaledConfig()
	for _, v := range []any{
		client.JobRequest{Benchmark: "BP", Org: "SAC", Config: &cfg, Fidelity: "estimate", TimeoutMS: 5},
		client.BatchRequest{Jobs: []client.JobRequest{{Benchmark: "RN", Org: "SM-side", Preset: "paper", Faults: "dram:0.0@100*0.5"}}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), b)
		f.Add(uint8(1), b)
	}
	f.Add(uint8(0), []byte(`{"Benchmark":"x","benchmark":"y","config":{"Chips":2},"config":{"SMsPerChip":1e0}}`))
	f.Add(uint8(0), []byte(`{"org":"S\u0041C","config":{"ClusterBW":1e400,"Org":256,"Geom":{"Sectors":-0}}}`))
	f.Add(uint8(0), []byte(`{"benchmark":"R\u004e","org":"SAC","faults":"a\\b"}`))
	f.Add(uint8(1), []byte(`{"jobs":[{"benchmark":"a"}],"jobs":[{"org":"b"}]}`))
	f.Add(uint8(1), []byte(` {"jobs":null} `))
	f.Add(uint8(0), []byte(`{"benchmark":"BP","org":"SAC","config":{"BanksPerChanel":4}}`))
	f.Add(uint8(1), []byte(`{"jobs":[{"benchmark":"BP","org":"SAC","MinSamples":64}]}`))
	for _, body := range trailingBodies {
		f.Add(uint8(0), []byte(body))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var got, want any = new(client.JobRequest), new(client.JobRequest)
		if kind%2 == 1 {
			got, want = new(client.BatchRequest), new(client.BatchRequest)
		}
		err, wantErr := client.Unmarshal(data, got), strictUnmarshal(data, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q into %T: error %v, the reference's %v", data, got, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q into %T:\n got %+v\nwant %+v", data, got, got, want)
		}
	})
}

// strictUnmarshal is the request decoder's reference: encoding/json with
// unknown fields disallowed, and, as json.Unmarshal requires, nothing but
// whitespace after the value.
func strictUnmarshal(data []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	if err := d.Decode(v); err != nil {
		return err
	}
	if rest := data[d.InputOffset():]; len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
		return fmt.Errorf("%d bytes after the value", len(rest))
	}
	return nil
}
