package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// tinyConfig shrinks the machine so cluster tests simulate in milliseconds
// (mirrors the server package's shrink).
func tinyConfig() gpu.Config {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 512
	cfg.SACOpts.WindowCycles = 1500
	return cfg
}

// tinyRequest names one cell; scale perturbs the config so each value is a
// distinct cache key (and therefore a distinct ring placement).
func tinyRequest(benchmark, org string, scale int) client.JobRequest {
	cfg := tinyConfig()
	if scale > 0 {
		cfg.WorkloadScale = scale
	}
	return client.JobRequest{Benchmark: benchmark, Org: org, Config: &cfg}
}

// testWorker is one in-process sacd worker enrolled in a fleet.
type testWorker struct {
	id    string
	srv   *server.Server
	hs    *httptest.Server
	agent *Agent
}

// kill is the SIGKILL path: HTTP goes dark and heartbeats stop, with no
// deregistration — the coordinator must find out the hard way.
func (w *testWorker) kill() {
	w.agent.abandon()
	w.hs.CloseClientConnections()
	w.hs.Close()
}

// abandon stops the agent's loop WITHOUT deregistering, so the coordinator
// must detect the death by heartbeat lapse, not by a goodbye.
func (a *Agent) abandon() {
	a.once.Do(func() {
		close(a.stop)
		<-a.done
	})
}

// startWorker boots a real server.Server over httptest and enrolls it.
func startWorker(t *testing.T, coordURL, id string) *testWorker {
	t.Helper()
	return startWorkerWith(t, coordURL, id, nil, "")
}

// startWorkerWith is startWorker whose job submissions wait until hold is
// closed (nil holds nothing), and whose default rung is fidelity.
func startWorkerWith(t *testing.T, coordURL, id string, hold <-chan struct{}, fidelity string) *testWorker {
	t.Helper()
	return startWorkerCfg(t, coordURL, id, server.Config{Workers: 2, DefaultFidelity: fidelity}, hold)
}

// startWorkerCfg is startWorkerWith for a server configured by cfg.
func startWorkerCfg(t *testing.T, coordURL, id string, cfg server.Config, hold <-chan struct{}) *testWorker {
	t.Helper()
	s := server.New(cfg)
	s.Start()
	h := s.Handler()
	if hold != nil {
		api := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				<-hold
			}
			api.ServeHTTP(w, r)
		})
	}
	hs := httptest.NewServer(h)
	agent, err := StartAgent(AgentConfig{
		Coordinator: coordURL,
		Info:        client.WorkerInfo{ID: id, URL: hs.URL},
		Health:      s.HealthSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorker{id: id, srv: s, hs: hs, agent: agent}
	t.Cleanup(func() {
		w.agent.abandon() // no-op if already closed/killed
		w.hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return w
}

// testCoordinator boots a coordinator with test-speed heartbeats.
func testCoordinator(t *testing.T, reg *obs.Registry) (*Coordinator, *httptest.Server) {
	t.Helper()
	return testCoordinatorAt(t, reg, "")
}

// testCoordinatorAt is testCoordinator whose default rung is fidelity.
func testCoordinatorAt(t *testing.T, reg *obs.Registry, fidelity string) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := bootCoordinator(t, reg, fidelity)
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(hs.Close)
	return c, hs
}

// bootCoordinator is a coordinator with test-speed heartbeats, closed with
// the test, that no server serves yet.
func bootCoordinator(t *testing.T, reg *obs.Registry, fidelity string) *Coordinator {
	t.Helper()
	c := New(Config{
		Heartbeat:       50 * time.Millisecond,
		Lapse:           250 * time.Millisecond,
		Registry:        reg,
		DefaultFidelity: fidelity,
		Dial: func(url string) *client.Client {
			return client.New(url,
				client.WithRetries(1),
				client.WithBackoff(2*time.Millisecond, 10*time.Millisecond))
		},
	})
	t.Cleanup(c.Close)
	return c
}

func newClient(url string) *client.Client {
	return client.New(url, client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
}

// submit sends req to c as a batch of one and returns its status.
func submit(ctx context.Context, c *client.Client, req client.JobRequest) (client.JobStatus, error) {
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{req})
	if err != nil {
		return client.JobStatus{}, err
	}
	return sts[0], nil
}

// waitLive polls until n workers are in the ring.
func waitLive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Fleet().Live == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d live workers: %+v", n, c.Fleet())
}

// ownedBy reports which worker the coordinator's ring places a request on.
func ownedBy(t *testing.T, c *Coordinator, req client.JobRequest) string {
	t.Helper()
	rj, err := server.ResolveRequest(req, "")
	if err != nil {
		t.Fatal(err)
	}
	id, ok := c.ring.Owner(rj.Key)
	if !ok {
		t.Fatal("empty ring")
	}
	return id
}

// TestClusterSmoke is the clustersmoke gate: an in-process coordinator with
// two real workers runs a small grid, then one worker is SIGKILLed (HTTP
// dark + heartbeats stop, no goodbye) and a second wave of cells placed on
// the dead worker must all be stolen to the survivor — zero lost cells.
func TestClusterSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	coord, hs := testCoordinator(t, reg)
	wa := startWorker(t, hs.URL, "worker-a")
	wb := startWorker(t, hs.URL, "worker-b")
	_ = wb
	waitLive(t, coord, 2)
	cc := newClient(hs.URL)

	// Wave 1: a healthy-fleet grid across both workers.
	var wave1 []client.JobRequest
	for _, bench := range []string{"RN", "SN"} {
		for _, org := range []string{"SAC", "memory-side"} {
			wave1 = append(wave1, tinyRequest(bench, org, 0))
		}
	}
	runWave(t, cc, wave1)

	// Wave 2: cells the ring places on worker-a, selected before the kill so
	// every one of them must be stolen. Scale perturbs keys until three land
	// on the victim.
	var wave2 []client.JobRequest
	for scale := 520; len(wave2) < 3 && scale < 2000; scale += 8 {
		req := tinyRequest("RN", "SAC", scale)
		if ownedBy(t, coord, req) == wa.id {
			wave2 = append(wave2, req)
		}
	}
	if len(wave2) < 3 {
		t.Fatal("could not find cells owned by worker-a")
	}

	wa.kill()
	runWave(t, cc, wave2)

	fs := coord.Fleet()
	if fs.Steals < 1 {
		t.Fatalf("no steals recorded after worker kill: %+v", fs)
	}
	// The lapse sweeper must eventually evict the corpse from the ring.
	deadline := time.Now().Add(5 * time.Second)
	for coord.Fleet().Live != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fs = coord.Fleet()
	if fs.Live != 1 {
		t.Fatalf("dead worker still in ring: %+v", fs)
	}
	for _, ws := range fs.Workers {
		if ws.ID == wa.id && ws.Health != "gone" {
			t.Fatalf("killed worker health = %q, want gone", ws.Health)
		}
	}
}

// runWave submits all cells concurrently and requires every one to finish
// done with a plausible result.
func runWave(t *testing.T, cc *client.Client, reqs []client.JobRequest) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req client.JobRequest) {
			defer wg.Done()
			res, err := cc.Run(ctx, req)
			if err == nil && res.Cycles <= 0 {
				err = fmt.Errorf("cell %d: bogus cycles %d", i, res.Cycles)
			}
			errs[i] = err
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d (%s/%s) lost: %v", i, reqs[i].Benchmark, reqs[i].Org, err)
		}
	}
}

// TestClusterGlobalDedup pins the fleet-wide exactly-once property: the same
// cell submitted concurrently by two clients simulates once (one source
// "sim"/"store", the other "dedup"), and a later submission recalls it
// ("memo") without touching the fleet.
func TestClusterGlobalDedup(t *testing.T) {
	reg := obs.NewRegistry()
	coord, hs := testCoordinator(t, reg)
	// The workers hold every dispatch until the coordinator has admitted
	// both submissions, so the second always meets the first in flight — a
	// cell that finished first would answer it from the memo instead.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the workers' cleanup drains them
	startWorkerWith(t, hs.URL, "worker-a", gate, "")
	startWorkerWith(t, hs.URL, "worker-b", gate, "")
	waitLive(t, coord, 2)
	ctx := context.Background()

	req := tinyRequest("RN", "SAC", 4096)
	clients := []*client.Client{newClient(hs.URL), newClient(hs.URL)}
	var (
		wg       sync.WaitGroup
		admitted sync.WaitGroup
		mu       sync.Mutex
		sources  = map[string]int{}
	)
	admitted.Add(len(clients))
	for _, cc := range clients {
		wg.Add(1)
		go func(cc *client.Client) {
			defer wg.Done()
			st, err := submit(ctx, cc, req)
			admitted.Done()
			if err == nil {
				st, err = cc.Wait(ctx, st.ID)
			}
			if err != nil {
				t.Errorf("submit/wait: %v", err)
				return
			}
			if st.State != client.StateDone {
				t.Errorf("state = %s (%s)", st.State, st.Error)
				return
			}
			mu.Lock()
			sources[st.Source]++
			mu.Unlock()
		}(cc)
	}
	admitted.Wait()
	release()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Exactly one execution: one job carries the worker's source (sim, or
	// store if the worker's warm tier had it), the other joined it.
	if sources[client.SourceDedup] != 1 || sources[client.SourceSim]+sources[client.SourceStore] != 1 {
		t.Fatalf("sources = %v, want exactly one sim/store and one dedup", sources)
	}
	if fs := coord.Fleet(); fs.DedupHits != 1 {
		t.Fatalf("fleet dedup hits = %d, want 1: %+v", fs.DedupHits, fs)
	}

	// Third submission after completion: answered from the flight memo, in
	// the submission response.
	st, err := submit(ctx, clients[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone || st.Source != client.SourceMemo {
		t.Fatalf("post-completion %s, source %q: want done from the memo", st.State, st.Source)
	}
}

// TestClusterFailedFlightRetries pins failure-memo eviction: a flight that
// fails transiently (here: deadline expiry on an empty fleet) must not
// poison its cache key — once a worker joins, resubmitting the same cell
// runs fresh and succeeds instead of replaying the stale error forever.
func TestClusterFailedFlightRetries(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	cc := newClient(hs.URL)
	ctx := context.Background()

	req := tinyRequest("RN", "SAC", 0)
	expiring := req
	expiring.TimeoutMS = 200
	st, err := submit(ctx, cc, expiring)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cc.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateExpired {
		t.Fatalf("empty-fleet state = %s, want expired", st.State)
	}

	startWorker(t, hs.URL, "worker-a")
	waitLive(t, coord, 1)
	res, err := cc.Run(ctx, req)
	if err != nil {
		t.Fatalf("resubmission replayed the stale failure: %v", err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("bogus cycles %d", res.Cycles)
	}
}

// TestClusterGC pins the memory bounds: terminal jobs fall out of the
// table after jobs.Retention, and the done flights they led out of the memo
// with them, and a post-GC resubmission re-dispatches (served from the
// worker's store, not the coordinator memo).
func TestClusterGC(t *testing.T) {
	c, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	waitLive(t, c, 1)
	cc := newClient(hs.URL)
	ctx := context.Background()

	req := tinyRequest("RN", "SAC", 0)
	if _, err := cc.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	// The lapse watcher's own sweeps, at the real clock, must keep both.
	if fs := c.Fleet(); fs.Jobs != 1 || fs.Flights != 1 {
		t.Fatalf("fresh job swept early: jobs=%d flights=%d", fs.Jobs, fs.Flights)
	}
	c.Sweep(time.Now().Add(jobs.Retention + time.Second))
	if fs := c.Fleet(); fs.Jobs != 0 || fs.Flights != 0 {
		t.Fatalf("sweep past the window kept jobs=%d flights=%d", fs.Jobs, fs.Flights)
	}

	// A post-GC resubmission must hit the worker again (dispatched climbs),
	// not be answered from a coordinator memo that no longer exists. The
	// worker's own flight memo may answer it instantly — that's the point:
	// eviction is cheap exactly because the worker still holds the result.
	before := c.Fleet().Workers[0].Dispatched
	st, err := submit(ctx, cc, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cc.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("post-GC state = %s (%s)", st.State, st.Error)
	}
	if after := c.Fleet().Workers[0].Dispatched; after != before+1 {
		t.Fatalf("post-GC dispatched = %d, want %d (one fresh dispatch)", after, before+1)
	}
}

// TestRecallAtAdmissionIsNotKept: a batch that resubmits a finished cell
// beside a fresh one. The resubmission is recalled in admission: its status
// is done from the memo, with its result inline and no id, and the
// coordinator keeps nothing of it. The fresh cell has an id and is retained
// once done. Len and the saccoord_jobs_retained gauge count the two
// dispatched jobs alone.
func TestRecallAtAdmissionIsNotKept(t *testing.T) {
	reg := obs.NewRegistry()
	c, hs := testCoordinator(t, reg)
	startWorker(t, hs.URL, "worker-a")
	waitLive(t, c, 1)
	cc := newClient(hs.URL)
	ctx := context.Background()

	done := tinyRequest("RN", "SAC", 0)
	first, err := cc.Run(ctx, done)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := cc.SubmitBatch(ctx, []client.JobRequest{done, tinyRequest("BP", "SAC", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := sts[0]; st.State != client.StateDone || st.Source != client.SourceMemo || st.ID != "" || st.Key == "" {
		t.Fatalf("recalled item: %s, source %q, id %q, key %q; want done from the memo, with its key and no id",
			st.State, st.Source, st.ID, st.Key)
	}
	if run, err := sts[0].Outcome(); err != nil || run.Cycles != first.Cycles {
		t.Fatalf("recalled item's inline result: %v, %v; want the first run's", run, err)
	}
	fresh := sts[1]
	if fresh.ID == "" {
		t.Fatalf("fresh item: %s with no id, want an id", fresh.State)
	}
	final, err := cc.WaitAll(ctx, []string{fresh.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st := final[fresh.ID]; st.State != client.StateDone {
		t.Fatalf("fresh item finished %s (%s), want done", st.State, st.Error)
	}
	if st, ok := c.Status(fresh.ID); !ok || st.State != client.StateDone || len(st.Result) == 0 {
		t.Fatalf("fresh job after it finished: known=%v %s; want retained done with its result", ok, st.State)
	}
	c.Sweep(time.Now())
	if n, g := c.Len(), reg.Gauge("saccoord_jobs_retained", "").Value(); n != 2 || g != 2 {
		t.Fatalf("Len = %d, saccoord_jobs_retained = %v after the sweep; want 2 and 2: the recall is not kept", n, g)
	}
}

// TestClusterHeartbeatRevival pins that a bare heartbeat (empty status, as a
// minimal API caller might send) revives a lapsed worker all the way back to
// healthy — not stuck at "gone" where pickWorker would skip it.
func TestClusterHeartbeatRevival(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	if _, err := c.Register(client.WorkerInfo{ID: "w1", URL: "http://unused"}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.markGoneLocked("w1", c.workers["w1"], "test lapse")
	c.mu.Unlock()

	if !c.Heartbeat("w1", client.Health{}) {
		t.Fatal("heartbeat rejected a known worker")
	}
	c.mu.Lock()
	w := c.workers["w1"]
	health, gone := w.health, w.gone
	c.mu.Unlock()
	if gone || health != client.HealthHealthy {
		t.Fatalf("revived worker gone=%v health=%q, want healthy in ring", gone, health)
	}
	if _, _, ok := c.pickWorker("anykey", nil); !ok {
		t.Fatal("pickWorker skips the revived worker")
	}
}

// lockedLog is an io.Writer the agent's goroutine and the test share.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// slowLapseCoordinator boots a coordinator whose heartbeat is fast but whose
// lapse is an hour, so no worker in a test can leave the ring by lapsing.
func slowLapseCoordinator() *Coordinator {
	return New(Config{Heartbeat: 20 * time.Millisecond, Lapse: time.Hour})
}

// TestAgentCloseDeregisters: Agent.Close says goodbye, so the worker leaves
// the ring the moment Close returns, not a lapse later.
func TestAgentCloseDeregisters(t *testing.T) {
	c := slowLapseCoordinator()
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	a, err := StartAgent(AgentConfig{Coordinator: hs.URL, Info: client.WorkerInfo{ID: "w1", URL: "http://unused"}})
	if err != nil {
		t.Fatal(err)
	}
	waitLive(t, c, 1)
	a.Close()
	fs := c.Fleet()
	if fs.Live != 0 || len(fs.Workers) != 1 || fs.Workers[0].Health != "gone" {
		t.Fatalf("fleet after Agent.Close: %+v, want no live worker and w1 gone", fs)
	}
}

// TestAgentReregistersWhenForgotten: a coordinator restarted on the same
// address has an empty worker table, so it answers the agent's next
// heartbeat with 404; the agent takes that as its cue and registers again.
func TestAgentReregistersWhenForgotten(t *testing.T) {
	first, second := slowLapseCoordinator(), slowLapseCoordinator()
	var current atomic.Pointer[http.Handler]
	before, after := first.Handler(), second.Handler()
	current.Store(&before)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	var log lockedLog
	a, err := StartAgent(AgentConfig{
		Coordinator: hs.URL,
		Info:        client.WorkerInfo{ID: "w1", URL: "http://unused"},
		Log:         &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		hs.Close()
		first.Close()
		second.Close()
	})
	waitLive(t, first, 1)
	current.Store(&after)
	waitLive(t, second, 1)
	if out := log.String(); !strings.Contains(out, "coordinator forgot us, re-registering") {
		t.Fatalf("agent re-registered without reading the 404 as forgotten; log:\n%s", out)
	}
}

// TestClusterNoWorkers pins the empty-fleet behavior: a deadlined job waits
// for a worker and expires instead of failing instantly.
func TestClusterNoWorkers(t *testing.T) {
	_, hs := testCoordinator(t, nil)
	cc := newClient(hs.URL)
	st, err := submit(context.Background(), cc, func() client.JobRequest {
		r := tinyRequest("RN", "SAC", 0)
		r.TimeoutMS = 300
		return r
	}())
	if err != nil {
		t.Fatal(err)
	}
	st, err = cc.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateExpired {
		t.Fatalf("state = %s, want expired", st.State)
	}
}

// TestCoordinatorHealth: GET /v1/healthz reads degraded, with its reason,
// while no worker is live, and healthy with the live count once two are.
func TestCoordinatorHealth(t *testing.T) {
	c, hs := testCoordinator(t, nil)
	cc := newClient(hs.URL)
	h, err := cc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != client.HealthDegraded || h.Workers != 0 || len(h.Reasons) != 1 || h.Reasons[0] != "no live workers" {
		t.Fatalf("empty fleet: health %+v, want degraded for no live workers", h)
	}
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, c, 2)
	if h, err = cc.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Status != client.HealthHealthy || h.Workers != 2 || len(h.Reasons) != 0 {
		t.Fatalf("two live workers: health %+v, want healthy with 2 workers", h)
	}
}

// TestDispatchDoneWithoutResultFails: every status carries a done job's
// result, so a worker that answers done without one fails the dispatch
// attempt instead of earning another round trip.
func TestDispatchDoneWithoutResultFails(t *testing.T) {
	var submits, fetches atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs:batch":
			submits.Add(1)
			jobs.WriteJSON(w, http.StatusAccepted, client.BatchResponse{Jobs: []client.BatchItem{
				{Status: &client.JobStatus{ID: "w1", State: client.StateDone}}}})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/w1":
			fetches.Add(1)
			jobs.WriteJSON(w, http.StatusOK, client.JobStatus{ID: "w1", State: client.StateDone, Cycles: 7})
		default:
			jobs.WriteError(w, http.StatusNotFound, "no route")
		}
	}))
	t.Cleanup(worker.Close)
	c, hs := testCoordinator(t, nil)
	if _, err := c.Register(client.WorkerInfo{ID: "fake", URL: worker.URL}); err != nil {
		t.Fatal(err)
	}
	cc := newClient(hs.URL)
	ctx := context.Background()
	st, err := submit(ctx, cc, tinyRequest("RN", "SAC", 0))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cc.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateFailed || !strings.Contains(st.Error, "without its result") {
		t.Fatalf("job %s %q, want failed for a result-less done", st.State, st.Error)
	}
	if submits.Load() == 0 || fetches.Load() != 0 {
		t.Fatalf("%d dispatches, %d status fetches; want some and none", submits.Load(), fetches.Load())
	}
}

// TestCancelReachesWorker: a job canceled at the coordinator while its
// dispatch waits on a worker's watch is canceled on that worker too — the
// steal-cancel DELETE names the id the worker accepted it under — and only
// it: the rest of its submit group runs on to done.
func TestCancelReachesWorker(t *testing.T) {
	f := startFakeWorker(t)
	f.hold = make(chan struct{})
	c, cc := fakeCoordinator(t, f)
	ids := submitGroup(t, c, cc, f, []client.JobRequest{
		tinyRequest("RN", "SAC", 600), tinyRequest("RN", "SAC", 608), tinyRequest("RN", "SAC", 616),
	})
	f.await(t, "parked watches name every job of both groups", func() bool {
		return len(f.batches) == 2 && len(f.batches[1]) == 2 && f.watchingLocked(f.scale[600], f.scale[608], f.scale[616])
	})
	f.mu.Lock()
	victim, mates := f.scale[608], []string{f.scale[600], f.scale[616]}
	f.mu.Unlock()

	ctx := context.Background()
	if _, err := cc.Cancel(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	f.await(t, "the worker receives a DELETE", func() bool { return len(f.deleted) > 0 })
	for _, wid := range mates {
		f.finish(wid, client.StateDone)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := cc.WaitAll(wctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{client.StateDone, client.StateCanceled, client.StateDone} {
		if st := final[ids[i]]; st.State != want {
			t.Fatalf("job %d %s (%s), want %s", i, st.State, st.Error, want)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.deleted) != 1 || f.deleted[0] != victim {
		t.Fatalf("worker told to cancel %v, want only the canceled job's %s", f.deleted, victim)
	}
}

// TestClusterKeyAffinity pins placement: with a stable fleet, every
// submission of the same cell lands on the ring owner, and distinct cells
// spread across workers.
func TestClusterKeyAffinity(t *testing.T) {
	reg := obs.NewRegistry()
	coord, hs := testCoordinator(t, reg)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)
	cc := newClient(hs.URL)
	ctx := context.Background()

	req := tinyRequest("SN", "static", 0)
	want := ownedBy(t, coord, req)
	if _, err := cc.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, ws := range coord.Fleet().Workers {
		if ws.Dispatched > 0 {
			ran = append(ran, ws.ID)
		}
	}
	if len(ran) != 1 || ran[0] != want {
		t.Fatalf("cell was dispatched to %v, ring owner is %s", ran, want)
	}
}

// TestClusterForwardsResolvedFidelity: a request that names no rung takes
// the coordinator's default, and the worker runs that rung whatever its own
// default, in both directions.
func TestClusterForwardsResolvedFidelity(t *testing.T) {
	for _, c := range []struct{ coord, worker string }{
		{"estimate", "exact"},
		{"exact", "estimate"},
	} {
		t.Run("coordinator "+c.coord+", worker "+c.worker, func(t *testing.T) {
			coord, hs := testCoordinatorAt(t, nil, c.coord)
			startWorkerWith(t, hs.URL, "w1", nil, c.worker)
			waitLive(t, coord, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			st, err := newClient(hs.URL).Run(ctx, tinyRequest("RN", "SAC", 0))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := backend.Display(st.Fidelity), c.coord; got != want {
				t.Fatalf("the cell ran at %q, want the coordinator's %q", got, want)
			}
		})
	}
}

// TestClusterRejectsUnknownFidelity: the coordinator resolves a request
// before placing it, so a rung the ladder does not have is a 400 naming
// both rungs, even with no worker in the fleet. So is a body naming a field
// the request type lacks, such as a priority.
func TestClusterRejectsUnknownFidelity(t *testing.T) {
	_, hs := testCoordinator(t, nil)
	req := tinyRequest("RN", "SAC", 0)
	req.Fidelity = "sampled"
	_, err := submit(context.Background(), newClient(hs.URL), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %v", err)
	}
	if !strings.Contains(apiErr.Message, `"estimate"`) || !strings.Contains(apiErr.Message, `"exact"`) {
		t.Fatalf("error %q does not name both rungs", apiErr.Message)
	}
	resp, err := http.Post(hs.URL+"/v1/jobs:batch", "application/json",
		strings.NewReader(`{"jobs":[{"benchmark":"RN","org":"SAC","priority":"normal"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a body naming priority: want 400, got %d", resp.StatusCode)
	}
}

// TestIdentityMemoPerDaemon: only sacd keeps an identity memo. The
// coordinator resolves every request afresh and exports no memo series; the
// worker resolves the cell the coordinator forwards once (one miss, no hit);
// and a resubmission is the coordinator's flight recall, which never reaches
// the worker's resolver again.
func TestIdentityMemoPerDaemon(t *testing.T) {
	reg, wreg := obs.NewRegistry(), obs.NewRegistry()
	coord, hs := testCoordinator(t, reg)
	startWorkerCfg(t, hs.URL, "worker-a", server.Config{Workers: 2, Registry: wreg}, nil)
	waitLive(t, coord, 1)
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := tinyRequest("RN", "SAC", 0)
	var sources []string
	for range 2 {
		st, err := submit(ctx, cc, req)
		if err == nil && !st.Done() {
			st, err = cc.Wait(ctx, st.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, st.Source)
	}
	if sources[1] != client.SourceMemo {
		t.Errorf("sources %q: the resubmission was not the coordinator's flight recall", sources)
	}
	metrics := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if m := metrics(reg); strings.Contains(m, "identity_memo") || !strings.Contains(m, "saccoord_memo_recalls_total 1\n") {
		t.Errorf("coordinator /metrics: want no identity memo series and one recall:\n%s", m)
	}
	w := metrics(wreg)
	for _, line := range []string{"sacd_identity_memo_hits_total 0\n", "sacd_identity_memo_misses_total 1\n"} {
		if !strings.Contains(w, line) {
			t.Errorf("worker /metrics lacks %q", line)
		}
	}
}

// TestWorkerMemoOnColdFleet reads the workers' identity memos on traffic
// shaped like the fleet_cold workload: batches of unique exact cells through
// the coordinator to two journaled workers. No cell repeats on a worker, so
// every cell a worker resolves is a memo miss, which allocates its identity,
// and none is a hit.
func TestWorkerMemoOnColdFleet(t *testing.T) {
	const batches, cells = 4, 16
	coord, hs := testCoordinator(t, nil)
	var regs []*obs.Registry
	for _, id := range []string{"worker-a", "worker-b"} {
		reg := obs.NewRegistry()
		regs = append(regs, reg)
		startWorkerCfg(t, hs.URL, id, server.Config{Workers: 2, Registry: reg,
			JournalPath: filepath.Join(t.TempDir(), "journal.wal")}, nil)
	}
	waitLive(t, coord, 2)
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	benches := []string{"RN", "BP", "SN", "NN"}
	for b := range batches {
		reqs := make([]client.JobRequest, cells)
		for i := range reqs {
			reqs[i] = tinyRequest(benches[i%len(benches)], "SAC", 0)
			reqs[i].Config.MaxCycles += int64(b*cells + i) // a new key, a safety stop no cell reaches
		}
		sts, err := cc.SubmitBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(sts))
		for i, st := range sts {
			ids[i] = st.ID
		}
		if _, err := cc.WaitAll(ctx, ids); err != nil {
			t.Fatal(err)
		}
	}
	var hits, misses float64
	for i, reg := range regs {
		h := reg.Counter("sacd_identity_memo_hits_total", "").Value()
		m := reg.Counter("sacd_identity_memo_misses_total", "").Value()
		t.Logf("worker %d: %v identity memo hits, %v misses", i, h, m)
		hits, misses = hits+h, misses+m
	}
	if hits != 0 || misses < batches*cells {
		t.Fatalf("workers: %v hits and %v misses over %d unique cells, want 0 hits and a miss per cell", hits, misses, batches*cells)
	}
}

// TestCoordinatorRestartConverges: saccoord keeps its state in memory only,
// so a coordinator restarted at the same URL knows no worker and no flight.
// The workers re-register on its 404 to their heartbeats, and a client that
// resubmits its batch there converges without simulating anything again:
// estimate cells come back from the workers' stores and exact cells from
// the finished flights the workers still hold.
func TestCoordinatorRestartConverges(t *testing.T) {
	var api atomic.Value // the http.Handler of the coordinator serving now
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	coord := bootCoordinator(t, nil, "")
	api.Store(coord.Handler())
	var stores []*store.Store
	for _, id := range []string{"worker-a", "worker-b"} {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores = append(stores, st)
		startWorkerCfg(t, hs.URL, id, server.Config{Workers: 2, Store: st}, nil)
	}
	waitLive(t, coord, 2)

	var reqs []client.JobRequest
	for i := range 8 {
		for _, fidelity := range []string{"exact", "estimate"} {
			req := tinyRequest("RN", "SAC", 600+8*i)
			req.Fidelity = fidelity
			reqs = append(reqs, req)
		}
	}
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// run submits reqs and returns their final statuses in request order.
	run := func() []client.JobStatus {
		t.Helper()
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
		for i, id := range ids {
			if sts[i] = final[id]; sts[i].State != client.StateDone {
				t.Fatalf("job %d %s: %s", i, sts[i].State, sts[i].Error)
			}
		}
		return sts
	}
	// stored sums the workers' store misses, one per simulation, and cells.
	stored := func() (misses int64, cells int) {
		for _, st := range stores {
			misses, cells = misses+st.Misses(), cells+st.Len()
		}
		return misses, cells
	}
	run()
	misses, cells := stored()

	coord.Close()
	coord = bootCoordinator(t, nil, "")
	api.Store(coord.Handler())
	waitLive(t, coord, 2)
	for i, st := range run() {
		want := client.SourceMemo
		if reqs[i].Fidelity == "estimate" {
			want = client.SourceStore
		}
		if st.Source != want {
			t.Errorf("job %d (%s) after the restart: source %q, want %q", i, reqs[i].Fidelity, st.Source, want)
		}
	}
	if after, cellsAfter := stored(); after != misses || cellsAfter != cells {
		t.Fatalf("the workers simulated again: store misses %d -> %d, cells %d -> %d", misses, after, cells, cellsAfter)
	}
}
