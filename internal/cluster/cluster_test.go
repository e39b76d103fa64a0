package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
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

// startWorker boots a real server.Server over httptest and enrolls it.
func startWorker(t *testing.T, coordURL, id string) *testWorker {
	t.Helper()
	return startWorkerWith(t, coordURL, id, server.Config{Workers: 2})
}

func startWorkerWith(t *testing.T, coordURL, id string, cfg server.Config) *testWorker {
	t.Helper()
	s := server.New(cfg)
	s.Start()
	hs := httptest.NewServer(s.Handler())
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
	c := New(Config{
		Heartbeat:   50 * time.Millisecond,
		Lapse:       250 * time.Millisecond,
		MaxAttempts: 8,
		Registry:    reg,
		Dial: func(url string) *client.Client {
			return client.New(url,
				client.WithRetries(1),
				client.WithBackoff(2*time.Millisecond, 10*time.Millisecond))
		},
	})
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return c, hs
}

func newClient(url string) *client.Client {
	return client.New(url, client.WithBackoff(2*time.Millisecond, 20*time.Millisecond))
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
	// The workers hold every execution until the coordinator has admitted
	// both submissions, so the second always meets the first in flight — a
	// cell that finished first would answer it from the memo instead.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the workers' cleanup drains them
	held := server.Config{Workers: 2, Chaos: server.Chaos{BeforeRun: func(string) { <-gate }}}
	startWorkerWith(t, hs.URL, "worker-a", held)
	startWorkerWith(t, hs.URL, "worker-b", held)
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
			st, err := cc.Submit(ctx, req)
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

	// Third submission after completion: answered from the flight memo.
	st, err := clients[0].Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = clients[0].Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != client.SourceMemo {
		t.Fatalf("post-completion source = %q, want memo", st.Source)
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
	st, err := cc.Submit(ctx, expiring)
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

// TestClusterGC pins the memory bounds: done flights fall out of the memo
// after jobs.MemoTTL and terminal jobs out of the table after
// jobs.Retention, and a post-GC resubmission re-dispatches (served from the
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
	st, err := cc.Submit(ctx, req)
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

// TestClusterNoWorkers pins the empty-fleet behavior: a deadlined job waits
// for a worker and expires instead of failing instantly.
func TestClusterNoWorkers(t *testing.T) {
	_, hs := testCoordinator(t, nil)
	cc := newClient(hs.URL)
	st, err := cc.Submit(context.Background(), func() client.JobRequest {
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
