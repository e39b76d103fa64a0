package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
)

// serve sends one request and returns the response body, requiring code.
func serve(t *testing.T, method, url, body string, code int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Fatalf("%s %s: %d %s, want %d", method, url, resp.StatusCode, b, code)
	}
	return b
}

// sameAsEncodingJSON decodes a served body into its client type, encodes it
// again with json.NewEncoder and requires the served bytes, and returns the
// decoded value.
func sameAsEncodingJSON[T any](t *testing.T, route string, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v in %s", route, err, body)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatalf("%s: served bytes differ from encoding/json:\nserved %s\n  want %s", route, body, buf.Bytes())
	}
	return v
}

// TestStatusRoutesMatchEncodingJSON drives every route that writes a
// JobStatus — submit, batch and watch with results, status, cancel — over
// jobs that carry a deadline, a queue position, a failure error, a
// cancellation and inline results, and requires each body to be exactly what
// encoding/json writes for the value it decodes to.
func TestStatusRoutesMatchEncodingJSON(t *testing.T) {
	var fail sync.Map // job ids the chaos hook fails
	s := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()),
		Chaos: Chaos{BeforeRun: func(id string) {
			if _, ok := fail.Load(id); ok {
				panic("chaos: <injected> failure & \"quoted\"")
			}
		}}})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	exact, err := json.Marshal(client.JobRequest{Benchmark: "RN", Org: "SAC", Config: ptr(tinyConfig()), TimeoutMS: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}

	// Workers not started yet: exact jobs stay queued behind each other.
	first := sameAsEncodingJSON[client.JobStatus](t, "submit", serve(t, "POST", hs.URL+"/v1/jobs", string(exact), 202))
	second := sameAsEncodingJSON[client.JobStatus](t, "submit", serve(t, "POST", hs.URL+"/v1/jobs", string(exact), 202))
	if second.QueueAhead != 1 || second.DeadlineAt == nil {
		t.Fatalf("second job: queue_ahead %d, deadline %v; want 1 and set", second.QueueAhead, second.DeadlineAt)
	}
	fail.Store(second.ID, true)
	got := sameAsEncodingJSON[client.JobStatus](t, "status", serve(t, "GET", hs.URL+"/v1/jobs/"+second.ID, "", 200))
	if got.QueueAhead != 1 {
		t.Fatalf("status: queue_ahead %d, want 1", got.QueueAhead)
	}
	canceled := sameAsEncodingJSON[client.JobStatus](t, "cancel", serve(t, "DELETE", hs.URL+"/v1/jobs/"+first.ID, "", 200))
	if canceled.State != client.StateCanceled || canceled.Error == "" {
		t.Fatalf("cancel: %s %q, want canceled with an error", canceled.State, canceled.Error)
	}

	// Estimate cells answer inline, with results; the duplicate and the
	// deadline ride along.
	var breq client.BatchRequest
	for _, b := range []string{"BP", "RN", "BP"} {
		r := tinyRequest(b, "SAC")
		r.Fidelity, r.TimeoutMS = client.FidelityEstimate, 60_000
		breq.Jobs = append(breq.Jobs, r)
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	bresp := sameAsEncodingJSON[client.BatchResponse](t, "batch", serve(t, "POST", hs.URL+"/v1/jobs:batch?results=1", string(body), 202))
	ids := []string{second.ID, "jnot<a>job"}
	for _, item := range bresp.Jobs {
		if item.Status == nil || item.Status.State != client.StateDone || len(item.Status.Result) == 0 {
			t.Fatalf("batch item %+v: want done with a result", item)
		}
		ids = append(ids, item.Status.ID)
	}

	s.Start()
	failed := waitTerminal(t, s, second.ID, 30*time.Second)
	if failed.State != client.StateFailed || !strings.Contains(failed.Error, "<injected>") {
		t.Fatalf("second job: %s %q, want failed by the chaos hook", failed.State, failed.Error)
	}
	watch := sameAsEncodingJSON[client.WatchResponse](t, "watch",
		serve(t, "GET", hs.URL+"/v1/jobs:watch?results=1&timeout_ms=1000&ids="+strings.Join(ids, ","), "", 200))
	if len(watch.Jobs) != len(ids)-1 || len(watch.Unknown) != 1 {
		t.Fatalf("watch: %d jobs, unknown %v; want %d and one", len(watch.Jobs), watch.Unknown, len(ids)-1)
	}
	sameAsEncodingJSON[client.JobStatus](t, "status", serve(t, "GET", hs.URL+"/v1/jobs/"+second.ID, "", 200))
	sameAsEncodingJSON[client.JobStatus](t, "cancel", serve(t, "DELETE", hs.URL+"/v1/jobs/"+ids[2], "", 200))
}

func ptr[T any](v T) *T { return &v }

// TestWarmBatchAllocs pins the allocation cost of the warm serving path end
// to end: a 64-cell estimate batch, every cell a store hit, submitted with
// client.SubmitBatch through a loopback HTTP server and answered with inline
// results. Client and server allocations both count.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const cells, perCell = 64, 34
	_, c := testDaemon(t, Config{Store: openTestStore(t, t.TempDir()), QueueCap: 4 * cells})
	var reqs []client.JobRequest
	for _, org := range []string{"memory-side", "SM-side", "static", "SAC"} {
		for _, b := range []string{"RN", "AN", "SN", "CFD", "BFS", "3DC", "BS", "BT",
			"SRAD", "GEMM", "LUD", "STEN", "3MM", "BP", "DWT", "NN"} {
			r := tinyRequest(b, org)
			r.Fidelity = client.FidelityEstimate
			reqs = append(reqs, r)
		}
	}
	ctx := context.Background()
	submit := func() {
		sts, err := c.SubmitBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			if st.State != client.StateDone || len(st.Result) == 0 {
				t.Fatalf("%s/%s: %s %q, want done with a result", st.Benchmark, st.Org, st.State, st.Error)
			}
		}
	}
	submit() // warm the store
	allocs := testing.AllocsPerRun(20, submit) / cells
	t.Logf("%.1f allocs per cell", allocs)
	if allocs > perCell {
		t.Fatalf("warm batch: %.1f allocs per cell, want <= %d", allocs, perCell)
	}
}
