package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/server"
)

// fakeWorker speaks the worker side of the jobs API from a table the test
// drives: submitted jobs stay queued until finish settles them, and a watch
// parks until one of its ids is terminal. Every batch, watch and cancel it
// receives is recorded.
type fakeWorker struct {
	hs *httptest.Server
	// refuse, when set, may refuse a batch whole, as sacd's all-or-nothing
	// admission does: it writes the refusal and returns true, or returns
	// false to admit the batch.
	refuse func(w http.ResponseWriter, reqs []client.JobRequest) bool
	// hold, when set, holds the first batch POST until it closes or its
	// caller gives up, which abandoned counts.
	hold      chan struct{}
	abandoned int
	// key, when set, is the store key every accepted job reports.
	key string

	mu      sync.Mutex
	changed chan struct{} // closed and replaced on every change
	state   map[string]string
	scale   map[int]string // request WorkloadScale → worker job id
	batches [][]client.JobRequest
	watches [][]string
	parked  map[*http.Request][]string // the watches parked right now
	deleted []string
}

func startFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{
		changed: make(chan struct{}),
		state:   map[string]string{},
		scale:   map[int]string{},
		parked:  map[*http.Request][]string{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs:batch", f.handleBatch)
	mux.HandleFunc("GET /v1/jobs:watch", f.handleWatch)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f.mu.Lock()
		f.deleted = append(f.deleted, id)
		f.mu.Unlock()
		f.finish(id, client.StateCanceled)
		jobs.WriteJSON(w, http.StatusOK, client.JobStatus{ID: id, State: client.StateCanceled})
	})
	f.hs = httptest.NewServer(mux)
	t.Cleanup(f.hs.Close)
	return f
}

// noteLocked wakes everyone waiting on a change; the caller holds f.mu.
func (f *fakeWorker) noteLocked() {
	close(f.changed)
	f.changed = make(chan struct{})
}

func (f *fakeWorker) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq client.BatchRequest
	if !jobs.DecodeBody(w, r, &breq) {
		return
	}
	f.mu.Lock()
	first := len(f.batches) == 0
	f.batches = append(f.batches, breq.Jobs)
	f.noteLocked()
	f.mu.Unlock()
	if first && f.hold != nil {
		select {
		case <-f.hold:
		case <-r.Context().Done():
			f.mu.Lock()
			f.abandoned++
			f.noteLocked()
			f.mu.Unlock()
			return
		}
	}
	if f.refuse != nil && f.refuse(w, breq.Jobs) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var resp client.BatchResponse
	for _, req := range breq.Jobs {
		id := fmt.Sprintf("wj-%d", len(f.state))
		f.state[id] = client.StateQueued
		f.scale[req.Config.WorkloadScale] = id
		resp.Jobs = append(resp.Jobs, client.BatchItem{Status: &client.JobStatus{ID: id, State: client.StateQueued, Key: f.key}})
	}
	f.noteLocked()
	jobs.WriteJSON(w, http.StatusAccepted, resp)
}

func (f *fakeWorker) handleWatch(w http.ResponseWriter, r *http.Request) {
	ids := strings.Split(r.URL.Query().Get("ids"), ",")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.watches = append(f.watches, ids)
	f.parked[r] = ids
	f.noteLocked()
	defer func() {
		delete(f.parked, r)
		f.noteLocked()
	}()
	for {
		var resp client.WatchResponse
		queued := false
		for _, id := range ids {
			switch st := f.state[id]; st {
			case "":
				resp.Unknown = append(resp.Unknown, id)
			case client.StateQueued:
				queued = true
			case client.StateDone:
				resp.Jobs = append(resp.Jobs, client.JobStatus{ID: id, State: st, Result: []byte(`{"Cycles":1}`)})
			default:
				resp.Jobs = append(resp.Jobs, client.JobStatus{ID: id, State: st})
			}
		}
		if !queued || len(resp.Unknown) > 0 {
			jobs.WriteJSON(w, http.StatusOK, resp)
			return
		}
		changed := f.changed
		f.mu.Unlock()
		select {
		case <-changed:
		case <-r.Context().Done():
		}
		f.mu.Lock()
		if r.Context().Err() != nil {
			return
		}
	}
}

// finish settles a worker job.
func (f *fakeWorker) finish(id, state string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state[id] == client.StateQueued {
		f.state[id] = state
	}
	f.noteLocked()
}

// await blocks until cond, read under f.mu, holds.
func (f *fakeWorker) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		f.mu.Lock()
		ok, changed := cond(), f.changed
		f.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("fake worker: timed out waiting until %s", what)
		}
	}
}

// watchingLocked reports whether every id is named by some parked watch;
// an id not assigned yet ("") is not.
func (f *fakeWorker) watchingLocked(ids ...string) bool {
	for _, id := range ids {
		named := false
		for _, parked := range f.parked {
			named = named || slices.Contains(parked, id)
		}
		if id == "" || !named {
			return false
		}
	}
	return true
}

// fakeCoordinator boots a coordinator whose only worker is f. The fake never
// heartbeats: an hour's lapse keeps it in the ring.
func fakeCoordinator(t *testing.T, f *fakeWorker) (*Coordinator, *client.Client) {
	t.Helper()
	c := New(Config{
		Heartbeat: time.Hour,
		Dial: func(url string) *client.Client {
			return client.New(url, client.WithRetries(1), client.WithBackoff(2*time.Millisecond, 10*time.Millisecond))
		},
	})
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	if _, err := c.Register(client.WorkerInfo{ID: "fake", URL: f.hs.URL}); err != nil {
		t.Fatal(err)
	}
	return c, newClient(hs.URL)
}

// queued reports how many dispatches wait in the workers' lane queues.
func queued(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		w.lanes.mu.Lock()
		n += len(w.lanes.queue)
		w.lanes.mu.Unlock()
	}
	return n
}

// submitGroup submits reqs to the coordinator so that the first travels
// alone, held at the fake, and the rest queue behind it and go out as one
// group once the hold is released.
func submitGroup(t *testing.T, c *Coordinator, cc *client.Client, f *fakeWorker, reqs []client.JobRequest) []string {
	t.Helper()
	ctx := context.Background()
	first, err := submit(ctx, cc, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	f.await(t, "the first batch arrives", func() bool { return len(f.batches) == 1 })
	ids := []string{first.ID}
	for rest := reqs[1:]; len(rest) > 0; {
		n := min(len(rest), 64)
		sts, err := cc.SubmitBatch(ctx, rest[:n])
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			ids = append(ids, st.ID)
		}
		rest = rest[n:]
	}
	for deadline := time.Now().Add(10 * time.Second); queued(c) < len(reqs)-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dispatches queued behind the held submit", queued(c), len(reqs)-1)
		}
	}
	close(f.hold)
	return ids
}

// countingTransport counts a worker client's calls by route and passes them
// to next (nil is http.DefaultTransport). After holdSubmits, it holds each
// worker's next submit until the returned channel closes, and counts the
// jobs in it, so a test can let every other dispatch queue behind those.
type countingTransport struct {
	next             http.RoundTripper
	submits, watches atomic.Int64

	mu      sync.Mutex
	release chan struct{}  // nil holds no submit
	held    map[string]int // worker host → jobs in its held submit
}

// holdSubmits holds each worker's next submit until the returned channel
// closes.
func (ct *countingTransport) holdSubmits() chan struct{} {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.release, ct.held = make(chan struct{}), map[string]int{}
	return ct.release
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	next := ct.next
	if next == nil {
		next = http.DefaultTransport
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs:batch":
		ct.submits.Add(1)
		ct.mu.Lock()
		release := ct.release
		_, seen := ct.held[r.URL.Host]
		if release != nil && !seen {
			ct.held[r.URL.Host] = 0
		}
		ct.mu.Unlock()
		if release == nil || seen {
			break
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		var breq client.BatchRequest
		if err := client.Unmarshal(b, &breq); err != nil {
			return nil, err
		}
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(b))
		ct.mu.Lock()
		ct.held[r.URL.Host] = len(breq.Jobs)
		ct.mu.Unlock()
		select {
		case <-release:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs:watch":
		ct.watches.Add(1)
	}
	return next.RoundTrip(r)
}

// countingFleet boots a coordinator whose worker clients call through ct,
// and two real workers enrolled in it.
func countingFleet(t *testing.T, ct *countingTransport) (*Coordinator, []*testWorker, *client.Client) {
	t.Helper()
	c := New(Config{
		Heartbeat: 50 * time.Millisecond,
		Lapse:     time.Hour,
		Dial: func(url string) *client.Client {
			return client.New(url, client.WithHTTPClient(&http.Client{Transport: ct}),
				client.WithRetries(1), client.WithBackoff(2*time.Millisecond, 10*time.Millisecond))
		},
	})
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	workers := []*testWorker{startWorker(t, hs.URL, "worker-a"), startWorker(t, hs.URL, "worker-b")}
	waitLive(t, c, 2)
	return c, workers, newClient(hs.URL)
}

// heldBatch submits 64 distinct cells (MaxCycles, offset by from, is a stop
// no cell reaches) and returns their ids once each worker's first submit
// was held until every other dispatch queued behind it, so the rest go out
// as one group per worker.
func heldBatch(ctx context.Context, t *testing.T, c *Coordinator, cc *client.Client, ct *countingTransport, from int64) []string {
	t.Helper()
	release := ct.holdSubmits()
	reqs := make([]client.JobRequest, 64)
	for i := range reqs {
		reqs[i] = tinyRequest("RN", "SAC", 1<<14)
		reqs[i].Config.MaxCycles += from + int64(i)
	}
	sts, err := cc.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ct.mu.Lock()
		n := queued(c)
		for _, k := range ct.held {
			n += k
		}
		ct.mu.Unlock()
		if n == len(reqs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dispatches held or queued", n, len(reqs))
		}
	}
	close(release)
	return ids
}

// waitDone waits until every id is done.
func waitDone(ctx context.Context, t *testing.T, cc *client.Client, ids []string) {
	t.Helper()
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := final[id]; st.State != client.StateDone {
			t.Fatalf("job %s %s: %s", id, st.State, st.Error)
		}
	}
}

// TestDispatchBatchesPerWorker: a 64-cell batch on two workers goes out as
// one held submit per worker and one group behind it, and each group's jobs
// come back through one long-poll that the worker answers once all of them
// are done, not a submit and a watch per cell. Every cell is a unique exact
// one, so no submit answers a job done and every group watches.
func TestDispatchBatchesPerWorker(t *testing.T) {
	ct := &countingTransport{}
	c, _, cc := countingFleet(t, ct)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	waitDone(ctx, t, cc, heldBatch(ctx, t, c, cc, ct, 0))
	submits, watches := ct.submits.Load(), ct.watches.Load()
	if submits > 4 {
		t.Errorf("%d submit calls for 64 cells on two workers, want at most 4", submits)
	}
	if watches != submits {
		t.Errorf("%d watch calls for %d submit groups, want one per group", watches, submits)
	}
	t.Logf("64 cells: %d submit calls, %d watch calls", submits, watches)
}

// TestDispatchDialsBounded: 8 sequential 64-cell batches on two workers
// ride the connections the first batch opened. No long-poll is canceled
// while its group still waits, so none is closed: the coordinator dials at
// most 3 connections per worker in all, however many calls they carry.
// Each batch's first submit per worker is held, as in
// TestDispatchBatchesPerWorker, so each worker gets two groups per batch:
// unheld, how many groups form, and so how many long-polls park at once,
// depends on how fast the coordinator's goroutines reach the lanes. A
// worker answers a group's watch once all its jobs are done, so the groups,
// not how completions bunch, bound the watch calls: at most one per submit.
func TestDispatchDialsBounded(t *testing.T) {
	tr := client.DefaultTransport()
	t.Cleanup(tr.CloseIdleConnections)
	var mu sync.Mutex
	dials := map[string]int{} // worker address → connections dialed
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		return dial(ctx, network, addr)
	}
	ct := &countingTransport{next: tr}
	c, _, cc := countingFleet(t, ct)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for b := range int64(8) {
		waitDone(ctx, t, cc, heldBatch(ctx, t, c, cc, ct, 64*b))
	}
	mu.Lock()
	defer mu.Unlock()
	for addr, n := range dials {
		if n > 3 {
			t.Errorf("worker %s dialed %d times over 8 batches, want at most 3", addr, n)
		}
	}
	submits, watches := ct.submits.Load(), ct.watches.Load()
	if watches > submits {
		t.Errorf("%d watch calls for %d submit groups, want at most one per group", watches, submits)
	}
	t.Logf("8 x 64 cells: dials %v, %d submit calls, %d watch calls", dials, submits, watches)
}

// TestKeyMismatchFailsAndStopsWorkerJob: a worker that accepts a job under
// another store key has drifted from the coordinator's version, which
// stealing cannot fix: the job fails for good after one dispatch and no
// steal, and the job the worker accepted, which nobody waits on any more,
// is canceled there.
func TestKeyMismatchFailsAndStopsWorkerJob(t *testing.T) {
	f := startFakeWorker(t)
	f.key = "drifted"
	c, cc := fakeCoordinator(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := submit(ctx, cc, tinyRequest("RN", "SAC", 600))
	if err == nil {
		st, err = cc.Wait(ctx, st.ID)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateFailed || !strings.Contains(st.Error, errPermanent.Error()) || !strings.Contains(st.Error, "key mismatch") {
		t.Fatalf("job %s %q, want failed for good by the key mismatch", st.State, st.Error)
	}
	if fs := c.Fleet(); fs.Steals != 0 || fs.Workers[0].Dispatched != 1 {
		t.Fatalf("%d steals, %d dispatches; want none and one", fs.Steals, fs.Workers[0].Dispatched)
	}
	f.await(t, "the worker's job is canceled", func() bool {
		return len(f.deleted) == 1 && f.deleted[0] == f.scale[600]
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) != 1 || len(f.watches) != 0 {
		t.Fatalf("%d submits and %d watches, want one submit and no watch", len(f.batches), len(f.watches))
	}
}

// TestLaneSettlesLaterJobFirst: a job that finishes on a worker settles at
// once, although a job submitted earlier to the same worker is still
// running: the later job's group watches it in a call of its own, which
// never waits on the ids another group watches.
func TestLaneSettlesLaterJobFirst(t *testing.T) {
	f := startFakeWorker(t)
	_, cc := fakeCoordinator(t, f)
	ctx := context.Background()

	slow, err := submit(ctx, cc, tinyRequest("RN", "SAC", 600))
	if err != nil {
		t.Fatal(err)
	}
	f.await(t, "the slow job is watched", func() bool { return f.watchingLocked(f.scale[600]) })
	fast, err := submit(ctx, cc, tinyRequest("RN", "SAC", 608))
	if err != nil {
		t.Fatal(err)
	}
	f.await(t, "the fast job is submitted", func() bool { return f.scale[608] != "" })
	f.mu.Lock()
	slowW, fastW := f.scale[600], f.scale[608]
	f.mu.Unlock()
	f.finish(fastW, client.StateDone)

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := cc.Wait(wctx, fast.ID)
	if err != nil {
		t.Fatalf("the later job waited on the earlier one: %v", err)
	}
	if st.State != client.StateDone {
		t.Fatalf("later job %s: %s", st.State, st.Error)
	}
	if st, _ := cc.Status(ctx, slow.ID); st.Done() {
		t.Fatalf("the earlier job is %s, want it still running", st.State)
	}
	f.finish(slowW, client.StateDone)
	if st, err = cc.Wait(wctx, slow.ID); err != nil || st.State != client.StateDone {
		t.Fatalf("earlier job: %v %s", err, st.State)
	}
}

// TestLaneLeaversEndTheirCalls: a job canceled while its submit is in
// flight ends canceled at once, its group's call canceled with it, and a job
// canceled while it is the only one watched ends the worker's long-poll
// instead of leaving it parked.
func TestLaneLeaversEndTheirCalls(t *testing.T) {
	f := startFakeWorker(t)
	f.hold = make(chan struct{})
	defer close(f.hold)
	_, cc := fakeCoordinator(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	held, err := submit(ctx, cc, tinyRequest("RN", "SAC", 600))
	if err != nil {
		t.Fatal(err)
	}
	f.await(t, "the submit is held", func() bool { return len(f.batches) == 1 })
	if _, err := cc.Cancel(ctx, held.ID); err != nil {
		t.Fatal(err)
	}
	if st, err := cc.Wait(ctx, held.ID); err != nil || st.State != client.StateCanceled {
		t.Fatalf("job canceled during its submit: %v %s", err, st.State)
	}
	f.await(t, "the held submit is abandoned", func() bool { return f.abandoned == 1 })

	watched, err := submit(ctx, cc, tinyRequest("RN", "SAC", 608))
	if err != nil {
		t.Fatal(err)
	}
	f.await(t, "the job is watched", func() bool { return f.watchingLocked(f.scale[608]) })
	if _, err := cc.Cancel(ctx, watched.ID); err != nil {
		t.Fatal(err)
	}
	f.await(t, "the worker job is canceled and no watch is parked", func() bool {
		return len(f.deleted) == 1 && f.deleted[0] == f.scale[608] && len(f.parked) == 0
	})
}

// TestGroupRefusedWholeKeepsPerItemAnswers: a worker admits a batch
// all-or-nothing, so one item it will not take refuses a whole group: a
// worker whose queue has no room left sheds it with 429, and any worker
// answers 400 to an invalid item (here the item at scale 616 stands for
// both). The group goes out once, without waiting out its Retry-After, and is
// resent item by item: the other jobs run there and only the refused one
// fails.
func TestGroupRefusedWholeKeepsPerItemAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		code int
	}{
		{"shed", http.StatusTooManyRequests},
		{"invalid", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFakeWorker(t)
			f.hold = make(chan struct{})
			f.refuse = func(w http.ResponseWriter, reqs []client.JobRequest) bool {
				for _, req := range reqs {
					if req.Config.WorkloadScale == 616 {
						if len(reqs) > 1 {
							// Past the fake's await timeout: a group that
							// waits it out fails the test.
							w.Header().Set("Retry-After", "30")
						}
						jobs.WriteError(w, tc.code, "refused")
						return true
					}
				}
				return false
			}
			c, cc := fakeCoordinator(t, f)
			ids := submitGroup(t, c, cc, f, []client.JobRequest{
				tinyRequest("RN", "SAC", 600), tinyRequest("RN", "SAC", 608), tinyRequest("RN", "SAC", 616),
			})
			f.await(t, "both normal jobs are admitted", func() bool { return f.scale[600] != "" && f.scale[608] != "" })
			f.mu.Lock()
			normal := []string{f.scale[600], f.scale[608]}
			f.mu.Unlock()
			for _, wid := range normal {
				f.finish(wid, client.StateDone)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			final, err := cc.WaitAll(ctx, ids)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids[:2] {
				if st := final[id]; st.State != client.StateDone {
					t.Fatalf("normal job %s: %s", st.State, st.Error)
				}
			}
			if st := final[ids[2]]; st.State != client.StateFailed || !strings.Contains(st.Error, fmt.Sprintf("HTTP %d", tc.code)) {
				t.Fatalf("refused job %s %q, want failed by the worker's %d", st.State, st.Error, tc.code)
			}
			if n := c.Fleet().Steals; n != maxAttempts-1 {
				t.Fatalf("%d steals, want only the refused job's %d", n, maxAttempts-1)
			}
			// The held job went alone, the pair once as one group, then the
			// normal job alone was admitted and the refused one never was.
			f.mu.Lock()
			defer f.mu.Unlock()
			scales := func(b []client.JobRequest) string {
				var s []string
				for _, req := range b {
					s = append(s, fmt.Sprint(req.Config.WorkloadScale))
				}
				slices.Sort(s)
				return strings.Join(s, ",")
			}
			var sent []string
			for _, b := range f.batches {
				sent = append(sent, scales(b))
			}
			if len(sent) < 3 || sent[1] != "608,616" || slices.Contains(sent[2:], "608,616") ||
				!slices.Contains(sent[2:], "608") || f.scale[616] != "" {
				t.Fatalf("batches %v: want the held one, the refused pair once, then 608 alone, with 616 never admitted", sent)
			}
		})
	}
}

// TestGroupSplitsAtBodyBound: dispatches that queue behind a held submit
// with long fault plans, together past the worker's body bound, go out as
// groups that each fit it, so the worker refuses none with 413.
func TestGroupSplitsAtBodyBound(t *testing.T) {
	f := startFakeWorker(t)
	f.hold = make(chan struct{})
	c, cc := fakeCoordinator(t, f)
	plan := strings.Repeat("dram:0.0@100*0.5;", 300) // ≈ 5 KiB
	reqs := make([]client.JobRequest, 900)
	for i := range reqs {
		reqs[i] = tinyRequest("RN", "SAC", 600+i)
		reqs[i].Faults = plan
	}
	ids := submitGroup(t, c, cc, f, reqs)
	f.await(t, "every job is admitted", func() bool { return len(f.state) == len(reqs) })
	f.mu.Lock()
	for wid := range f.state {
		f.state[wid] = client.StateDone
	}
	f.noteLocked()
	sent := make([]int, len(f.batches))
	for i, b := range f.batches {
		sent[i] = len(b)
	}
	f.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := final[id]; st.State != client.StateDone {
			t.Fatalf("job %s %s: %s", id, st.State, st.Error)
		}
	}
	// 899 requests of ≈ 5.8 KiB take two groups under 4 MiB; a group past
	// it would be refused and resent item by item.
	if len(sent) != 3 || sent[0] != 1 {
		t.Fatalf("jobs per batch %v, want the held one and two groups", sent)
	}
}

// TestQueueCapFleetCompletesBatch: workers whose queues hold 4 jobs refuse
// any larger group whole; the dispatches fall back to one item per call and
// steal around full queues, so a 32-cell batch completes with none failed.
func TestQueueCapFleetCompletesBatch(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorkerCfg(t, hs.URL, "worker-a", server.Config{Workers: 2, QueueCap: 4}, nil)
	startWorkerCfg(t, hs.URL, "worker-b", server.Config{Workers: 2, QueueCap: 4}, nil)
	waitLive(t, coord, 2)

	reqs := make([]client.JobRequest, 32)
	for i := range reqs {
		reqs[i] = tinyRequest("SN", "SAC", 520+8*i)
	}
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sts, err := cc.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, id := range ids {
		if st := final[id]; st.State != client.StateDone {
			failed++
			t.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d cells failed", failed, len(ids))
	}
	t.Logf("32 cells: %d steals", coord.Fleet().Steals)
}

// TestWatchLaneSplitsAboveMaxBatch: more outstanding jobs than one watch may
// name are long-polled by their submit groups, each at most client.MaxBatch
// ids per call, and every one is collected.
func TestWatchLaneSplitsAboveMaxBatch(t *testing.T) {
	f := startFakeWorker(t)
	_, cc := fakeCoordinator(t, f)
	n := client.MaxBatch + 8
	reqs := make([]client.JobRequest, n)
	for i := range reqs {
		reqs[i] = tinyRequest("RN", "SAC", 600+i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for len(reqs) > 0 {
		k := min(len(reqs), client.MaxBatch)
		sts, err := cc.SubmitBatch(ctx, reqs[:k])
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			ids = append(ids, st.ID)
		}
		reqs = reqs[k:]
	}
	f.await(t, "parked watches split every id between them", func() bool {
		union := map[string]bool{}
		for _, ids := range f.parked {
			for _, id := range ids {
				union[id] = true
			}
		}
		return len(f.parked) > 1 && len(union) == n
	})
	f.mu.Lock()
	wids := make([]string, 0, n)
	for wid := range f.state {
		wids = append(wids, wid)
	}
	f.mu.Unlock()
	for _, wid := range wids {
		f.finish(wid, client.StateDone)
	}
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := final[id]; st.State != client.StateDone {
			t.Fatalf("job %s %s: %s", id, st.State, st.Error)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.watches {
		if len(w) > client.MaxBatch {
			t.Fatalf("a watch named %d ids, over the limit of %d", len(w), client.MaxBatch)
		}
	}
	for _, b := range f.batches {
		if len(b) > client.MaxBatch {
			t.Fatalf("a submit carried %d jobs, over the limit of %d", len(b), client.MaxBatch)
		}
	}
}
