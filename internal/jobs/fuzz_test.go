package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
		Resolve: func(req client.JobRequest) (jobs.Identity, error) {
			return server.ResolveRequest(req, "")
		},
		Admit: func(batch []*jobs.Job) error {
			for _, j := range batch {
				t.RunDirect(j)
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
	f.Add(uint8(2), []byte(`ids=a,b,,c&timeout_ms=0&results=1`))
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

	mux := http.NewServeMux()
	stubTable().Mount(mux)
	f.Fuzz(func(t *testing.T, route uint8, data []byte) {
		r := &http.Request{Method: http.MethodPost, Header: http.Header{}, Body: http.NoBody}
		switch route % 3 {
		case 0:
			r.URL = &url.URL{Path: "/v1/jobs"}
			r.Body = io.NopCloser(bytes.NewReader(data))
		case 1:
			r.URL = &url.URL{Path: "/v1/jobs:batch", RawQuery: "results=1"}
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
