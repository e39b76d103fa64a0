package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// servedResult is the result bytes GET /v1/jobs/{id} serves for a done job.
func servedResult(t *testing.T, url, id string) json.RawMessage {
	t.Helper()
	var st client.JobStatus
	if err := json.Unmarshal(serve(t, "GET", url+"/v1/jobs/"+id, "", 200), &st); err != nil {
		t.Fatal(err)
	}
	return st.Result
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
// JobStatus — batch, watch, status and cancel — over jobs that carry a
// deadline, a queue position, a failure error, a cancellation, inline
// results and no id (estimate cells settled in the batch), and requires
// each body to be exactly what encoding/json writes for the value it
// decodes to. GET and DELETE name pending exact jobs, the ones with an id.
func TestStatusRoutesMatchEncodingJSON(t *testing.T) {
	var fail sync.Map // job ids the chaos hook fails
	s := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()),
		chaos: Chaos{BeforeRun: func(id string) {
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
	exact, err := json.Marshal(client.BatchRequest{Jobs: []client.JobRequest{
		{Benchmark: "RN", Org: "SAC", Config: ptr(tinyConfig()), TimeoutMS: 3_600_000}}})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() client.JobStatus {
		t.Helper()
		return *sameAsEncodingJSON[client.BatchResponse](t, "batch", serve(t, "POST", hs.URL+"/v1/jobs:batch", string(exact), 202)).Jobs[0].Status
	}

	// Workers not started yet: exact jobs stay queued behind each other. The
	// second fails; the third, of the same cell, leads a fresh flight after
	// it and finishes done.
	first, second, third := submit(), submit(), submit()
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

	// Estimate cells answer inline, with results and without ids; the
	// duplicate and the deadline ride along.
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
	bresp := sameAsEncodingJSON[client.BatchResponse](t, "batch", serve(t, "POST", hs.URL+"/v1/jobs:batch", string(body), 202))
	for _, item := range bresp.Jobs {
		if st := item.Status; st == nil || st.State != client.StateDone || len(st.Result) == 0 || st.ID != "" {
			t.Fatalf("batch item %+v: want done with a result and no id", item)
		}
	}

	s.Start()
	failed := waitTerminal(t, s, second.ID, 30*time.Second)
	if failed.State != client.StateFailed || !strings.Contains(failed.Error, "<injected>") {
		t.Fatalf("second job: %s %q, want failed by the chaos hook", failed.State, failed.Error)
	}
	waitTerminal(t, s, third.ID, 30*time.Second)
	ids := []string{first.ID, second.ID, third.ID, "jnot<a>job"}
	watch := sameAsEncodingJSON[client.WatchResponse](t, "watch",
		serve(t, "GET", hs.URL+"/v1/jobs:watch?timeout_ms=1000&ids="+strings.Join(ids, ","), "", 200))
	if len(watch.Jobs) != len(ids)-1 || len(watch.Unknown) != 1 {
		t.Fatalf("watch: %d jobs, unknown %v; want %d and one", len(watch.Jobs), watch.Unknown, len(ids)-1)
	}
	sameAsEncodingJSON[client.JobStatus](t, "status", serve(t, "GET", hs.URL+"/v1/jobs/"+second.ID, "", 200))
	for _, route := range []string{"GET", "DELETE"} {
		if st := sameAsEncodingJSON[client.JobStatus](t, route, serve(t, route, hs.URL+"/v1/jobs/"+third.ID, "", 200)); st.State != client.StateDone || len(st.Result) == 0 {
			t.Fatalf("%s of a done job: %s with %d result bytes, want done with its result inline", route, st.State, len(st.Result))
		}
	}
}

// TestBatchAndWatchCarryResults: every route that answers with a done job's
// status carries its result bytes. A store-less estimate cell answered in
// its jobs:batch POST has them inline and no id; an exact cell simulated on
// a worker carries the same bytes in the jobs:watch GET that brings it and
// in GET and DELETE /v1/jobs/{id}.
func TestBatchAndWatchCarryResults(t *testing.T) {
	_, _, url := testDaemonURL(t, Config{Workers: 1})
	estimate := tinyRequest("BP", "SAC")
	estimate.Fidelity = client.FidelityEstimate
	body, err := json.Marshal(client.BatchRequest{Jobs: []client.JobRequest{estimate, tinyRequest("RN", "SAC")}})
	if err != nil {
		t.Fatal(err)
	}
	var bresp client.BatchResponse
	if err := json.Unmarshal(serve(t, "POST", url+"/v1/jobs:batch", string(body), 202), &bresp); err != nil {
		t.Fatal(err)
	}
	if st := bresp.Jobs[0].Status; st == nil || st.State != client.StateDone || len(st.Result) == 0 || st.ID != "" {
		t.Fatalf("batch: estimate status %+v, want done with a result and no id", st)
	}
	exact := bresp.Jobs[1].Status.ID
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		var watch client.WatchResponse
		if err := json.Unmarshal(serve(t, "GET", url+"/v1/jobs:watch?timeout_ms=1000&ids="+exact, "", 200), &watch); err != nil {
			t.Fatal(err)
		}
		if len(watch.Jobs) != 1 {
			continue
		}
		st := watch.Jobs[0]
		if st.State != client.StateDone || len(st.Result) == 0 {
			t.Fatalf("watch: status %+v, want done with a result", st)
		}
		for _, method := range []string{"GET", "DELETE"} {
			var got client.JobStatus
			if err := json.Unmarshal(serve(t, method, url+"/v1/jobs/"+exact, "", 200), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Result, st.Result) {
				t.Fatalf("watch: inline result %q, but %s /v1/jobs/{id} carries %q", st.Result, method, got.Result)
			}
		}
		return
	}
	t.Fatal("exact job never finished")
}

func ptr[T any](v T) *T { return &v }

// TestWarmBatchAllocs pins the allocation cost of the warm serving path end
// to end: a 64-cell estimate batch, every cell a store hit, submitted with
// client.SubmitBatch through a loopback HTTP server and answered with inline
// results. Client and server allocations both count. About 9.1 per cell
// remain: on the daemon the job and the request's config; on the client
// each status's key string, its result bytes and the one block its times
// share; short benchmark strings, the blocks statuses are carved from and
// each batch's HTTP exchange make up the rest. A warm cell's identity is an
// identity-memo hit that its job points at: it copies no identity or
// catalog spec and hex-encodes no store key, the job makes no channel, and,
// settled in admission, it gets no id and leaves no final status.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	// perCell sits just above the reading (9.05): a fractional bound, so a
	// few more allocations per batch fail it.
	const cells, perCell = 64, 9.3
	_, c := testDaemon(t, Config{Store: openTestStore(t, t.TempDir()), QueueCap: 4 * cells})
	reqs := warmBatch()
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
	t.Logf("%.2f allocs per cell", allocs)
	if allocs > perCell {
		t.Fatalf("warm batch: %.2f allocs per cell, want <= %.1f", allocs, perCell)
	}
}

// BenchmarkWarmBatch is TestWarmBatchAllocs' path as a per-layer row: one
// warm 64-cell estimate batch per iteration, submitted with
// client.SubmitBatch over loopback, both ends counted, reported per cell.
func BenchmarkWarmBatch(b *testing.B) {
	_, c := testDaemon(b, Config{Store: openTestStore(b, b.TempDir()), QueueCap: 256})
	reqs := warmBatch()
	ctx := context.Background()
	if _, err := c.SubmitBatch(ctx, reqs); err != nil { // warm the store
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		if _, err := c.SubmitBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	cells := float64(b.N * len(reqs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/cells, "B/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cells, "allocs/cell")
}

// warmBatch is 64 estimate cells: the 16 workloads under each of four orgs.
func warmBatch() []client.JobRequest {
	var reqs []client.JobRequest
	for _, org := range []string{"memory-side", "SM-side", "static", "SAC"} {
		for _, b := range []string{"RN", "AN", "SN", "CFD", "BFS", "3DC", "BS", "BT",
			"SRAD", "GEMM", "LUD", "STEN", "3MM", "BP", "DWT", "NN"} {
			r := tinyRequest(b, org)
			r.Fidelity = client.FidelityEstimate
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// TestWarmRetainedBytes pins what an answered warm cell costs the daemon
// once its batch response is written: nothing. A warm cell settles in
// admission, so its status carries no id and the table keeps no record of
// it; the live heap after a GC grows by at most 64 bytes per cell over 20
// warm 64-cell batches.
func TestWarmRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures do not hold under -race")
	}
	const batches, perCell = 20, 64
	s, c := testDaemon(t, Config{Store: openTestStore(t, t.TempDir()), QueueCap: 256})
	reqs := warmBatch()
	ctx := context.Background()
	if _, err := c.SubmitBatch(ctx, reqs); err != nil { // warm the store
		t.Fatal(err)
	}
	live := func() int64 { // two GCs: the second frees what sync.Pools held
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	for range batches {
		sts, err := c.SubmitBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			if st.State != client.StateDone || len(st.Result) == 0 || st.ID != "" {
				t.Fatalf("warm cell %s/%s: %s, id %q, %d result bytes; want done, no id, its result inline",
					st.Benchmark, st.Org, st.State, st.ID, len(st.Result))
			}
		}
	}
	perCellGrowth := float64(live()-before) / float64(batches*len(reqs))
	t.Logf("%.0f bytes retained per cell", perCellGrowth)
	if perCellGrowth > perCell {
		t.Errorf("warm cells retain %.0f bytes each, want <= %d", perCellGrowth, perCell)
	}
	if n := s.Len(); n != 0 {
		t.Errorf("the table holds %d jobs after warm batches, want 0", n)
	}
}
