package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// daemon is one in-process sacd: a server.Server wired the way cmd/sacd
// wires it (metrics registry on server and store, journal beside the store)
// behind a real loopback listener.
type daemon struct {
	srv *server.Server
	st  *store.Store
	reg *obs.Registry
	hs  *http.Server
	url string
}

// startDaemon boots a sacd over dir. journaled adds the job journal, as a
// fleet worker runs with; a tracer wraps the handler in spans.
func startDaemon(dir string, workers, queueCap int, journaled bool, tr *tracer) (*daemon, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Store: st, Workers: workers, ChipWorkers: 1, QueueCap: queueCap, Registry: reg}
	if journaled {
		cfg.JournalPath = filepath.Join(dir, "journal.wal")
	}
	srv := server.New(cfg)
	if _, err := srv.Recover(); err != nil {
		st.Close()
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d := &daemon{srv: srv, st: st, reg: reg, url: "http://" + ln.Addr().String()}
	d.hs = &http.Server{Handler: spanHandler(tr, "server", tidServer, srv.Handler())}
	go func() { _ = d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) stop() {
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = d.srv.Drain(ctx)
	cancel()
	d.st.Close()
}

// newClient returns a client over at most conns keep-alive connections whose
// round trips carry the caller's span id to the handler.
func newClient(url string, conns int, tr *tracer) *client.Client {
	t := client.DefaultTransport()
	t.MaxConnsPerHost = conns
	var rt http.RoundTripper = t
	if tr != nil {
		rt = spanTransport{next: t, tr: tr}
	}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}))
}

// toRequest renders a cell as the wire request a sweep client sends: an
// explicit config, so the store key is the same whoever serves it.
func toRequest(c cell) client.JobRequest {
	cfg := c.cfg
	return client.JobRequest{Benchmark: c.spec.Name, Org: c.cfg.Org.String(), Config: &cfg, Fidelity: string(c.fidelity)}
}

// Closed loop: sacd's callers are sweep clients that wait for each reply
// before sending the next batch.
const serveClients = 2

// serveSegments is how many stretches a pass is timed in (it divides the
// batches per client at both sizes).
const serveSegments = 5

var serveWarmWorkload = workload{
	name:        serveWarm,
	passSeconds: 1.1,
	minPasses:   4,
	setup:       setupServeWarm,
	params: func(e *runEnv) map[string]any {
		return map[string]any{
			"loop":               "closed",
			"clients":            serveClients,
			"connections":        serveClients,
			"batch_cells":        serveBatchCells(e),
			"batches_per_client": serveBatchesPerClient(e),
			"universe_cells":     len(estimateUniverse(e.size)),
			"store":              "temp dir, default 64 MiB hot tier (the working set fits it by design)",
			"daemon":             "a fresh, warmed daemon per pass (sacd never forgets a job, so one long-lived daemon is not a steady state)",
		}
	},
}

func serveBatchCells(e *runEnv) int {
	if e.smoke() {
		return 16
	}
	return batchCells
}

// serveBatchesPerClient sizes a pass at about a second of serving.
func serveBatchesPerClient(e *runEnv) int {
	if e.smoke() {
		return 5
	}
	return 200
}

type serveInst struct {
	e      *runEnv
	d      *daemon
	cl     *client.Client
	dir    string
	served bool // the current daemon has run a pass
	reqs   []client.JobRequest
	refs   [][]byte // canonical in-process result of each universe cell

	hits, misses float64 // store counters of the daemons already retired
}

// setupServeWarm builds the request universe and boots the first daemon.
func setupServeWarm(e *runEnv) (instance, error) {
	in := &serveInst{e: e}
	for _, c := range estimateUniverse(e.size) {
		in.reqs = append(in.reqs, toRequest(c))
	}
	if err := in.boot(); err != nil {
		return nil, err
	}
	return in, nil
}

// boot starts a daemon over a fresh store and warms it with the whole
// universe, so the timed phase is pure serving: every cell a store hit.
func (in *serveInst) boot() error {
	dir, err := os.MkdirTemp(in.e.tmpDir, "serve-*")
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, 0, 2*len(in.reqs), false, in.e.tr)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	in.d, in.dir, in.cl = d, dir, newClient(d.url, serveClients, in.e.tr)
	sts, err := in.cl.SubmitBatch(context.Background(), in.reqs)
	if err == nil {
		for _, st := range sts {
			if st.State != client.StateDone {
				err = fmt.Errorf("warm-up cell %s/%s: %s %s", st.Benchmark, st.Org, st.State, st.Error)
				break
			}
		}
	}
	if err != nil {
		in.close()
	}
	return err
}

// prepare computes what the daemon must answer: each universe cell run in
// process. It is the benchmark's own checking work, so it is kept out of
// set-up time.
func (in *serveInst) prepare() (err error) {
	_, in.refs, err = referenceResults(estimateUniverse(in.e.size))
	return err
}

// pass has each client send its share of batches, one at a time. A batch is
// a seeded start and stride through the universe, so batch composition
// changes with the seed while every cell stays a warm hit.
//
// Every pass gets a daemon of its own (booted and warmed outside the timed
// region). sacd keeps every job it ever accepted, so on one long-lived
// daemon the heap grows without bound and a pass costs whatever the garbage
// collections that happen to land in it cost; fresh daemons make the passes
// alike, which is what lets a median over them mean something.
func (in *serveInst) pass(n int) passResult {
	nb, bc := serveBatchesPerClient(in.e), serveBatchCells(in.e)
	pr := passResult{cells: serveClients * nb * bc, clients: serveClients, sources: map[string]int{}}
	if in.served {
		in.hits += float64(in.d.st.Hits())
		in.misses += float64(in.d.st.Misses())
		in.close()
		if err := in.boot(); err != nil {
			pr.failed = pr.cells
			pr.firstErr = fmt.Sprintf("daemon reboot: %v", err)
			return pr
		}
	}
	in.served = true
	parts := make([]passResult, serveClients)
	rngs := make([]*rand.Rand, serveClients)
	for ci := range parts {
		parts[ci].sources = map[string]int{}
		rngs[ci] = in.e.rng(rngClient0+ci, n)
	}
	tr := in.e.tr

	m := startPassMeter()
	// Each client's root span covers the whole pass, so the time a client
	// waits for the other at a segment's end shows as harness self time.
	var roots [serveClients]int32
	for ci := range roots {
		roots[ci] = tr.begin("harness.pass", -1, int32(tidClient0+ci))
	}
	// The pass runs in segments; between them both clients pause for the
	// meter to sample the host.
	for seg := 0; seg < serveSegments; seg++ {
		var wg sync.WaitGroup
		for ci := 0; ci < serveClients; ci++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in.client(&parts[ci], rngs[ci], nb/serveSegments, bc, int32(tidClient0+ci), roots[ci])
			}()
		}
		wg.Wait()
		if seg < serveSegments-1 {
			m.lap()
		}
	}
	for _, root := range roots {
		tr.end(root)
	}
	pr.reading = m.stop()

	for _, part := range parts {
		pr.batchMs = append(pr.batchMs, part.batchMs...)
		pr.failed += part.failed
		if pr.firstErr == "" {
			pr.firstErr = part.firstErr
		}
		for src, k := range part.sources {
			pr.sources[src] += k
		}
	}
	return pr
}

// client sends nb batches of bc cells, one at a time, and checks every
// answer against the in-process result.
func (in *serveInst) client(part *passResult, rng *rand.Rand, nb, bc int, tid, root int32) {
	tr := in.e.tr
	reqs := make([]client.JobRequest, bc)
	idx := make([]int, bc)
	for b := 0; b < nb; b++ {
		start, stride := rng.Intn(len(in.reqs)), 1+2*rng.Intn(len(in.reqs)/2)
		for i := range reqs {
			idx[i] = (start + i*stride) % len(in.reqs)
			reqs[i] = in.reqs[idx[i]]
		}
		t0 := time.Now()
		id := tr.begin("client.submit", root, tid)
		sts, err := in.cl.SubmitBatch(withSpan(context.Background(), id), reqs)
		tr.end(id)
		part.batchMs = append(part.batchMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			for range reqs {
				part.fail("batch refused: %v", err)
			}
			continue
		}
		for i, st := range sts {
			switch {
			case st.State != client.StateDone:
				part.fail("%s/%s: %s %s", st.Benchmark, st.Org, st.State, st.Error)
			case !bytes.Equal(st.Result, in.refs[idx[i]]):
				part.fail("%s/%s: served bytes differ from the in-process run", st.Benchmark, st.Org)
			default:
				part.sources[st.Source]++
			}
		}
	}
}

func (in *serveInst) counters() map[string]float64 {
	return map[string]float64{
		"store.hits":    in.hits + float64(in.d.st.Hits()),
		"store.misses":  in.misses + float64(in.d.st.Misses()),
		"store.hot_len": float64(in.d.st.HotLen()),
	}
}

func (in *serveInst) close() {
	in.d.stop()
	os.RemoveAll(in.dir)
}

// fleetWorkers is the fleet size: with one coordinator it fills the box's
// two cores.
const fleetWorkers = 2

var fleetColdWorkload = workload{
	name:        fleetCold,
	passSeconds: 0.9,
	minPasses:   3,
	setup:       setupFleetCold,
	params: func(e *runEnv) map[string]any {
		return map[string]any{
			"loop":             "closed",
			"clients":          1,
			"workers":          fleetWorkers,
			"worker_sim_slots": 1,
			"batch_cells":      fleetBatchCells(e),
			"batches_per_pass": fleetBatchesPerPass(e),
			"shapes":           "tinyConfig of cluster_test.go; SN, BS, BT, RN, AN, BP x 4 orgs x 11 WorkloadScales from 2048, first 256",
			"unique_keys":      "every cell gets its own MaxCycles (a safety stop no cell reaches), so each key is new and each pass simulates the same shapes",
		}
	},
}

func fleetBatchCells(e *runEnv) int {
	if e.smoke() {
		return 8
	}
	return batchCells
}

func fleetBatchesPerPass(e *runEnv) int {
	if e.smoke() {
		return 1
	}
	return 4
}

// tinyConfig is the shrunken machine of cluster_test.go: exact cells that
// simulate in milliseconds, so the fleet's own cost is most of the cell.
func tinyConfig() sac.Config {
	cfg := sac.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 2048
	cfg.SACOpts.WindowCycles = 1500
	return cfg
}

// fleetShapes lists the distinct simulations every pass runs (in a seeded
// order, under new keys): 6 benchmarks x 4 orgs x 11 scales, cut to a whole
// number of batches. Smoke keeps one batch of SN cells.
func fleetShapes(e *runEnv) []cell {
	names := []string{"SN", "BS", "BT", "RN", "AN", "BP"}
	if e.smoke() {
		names = names[:1]
	}
	var shapes []cell
	for _, name := range names {
		spec, err := sac.Benchmark(name)
		if err != nil {
			panic(err) // catalog names are static
		}
		for _, org := range []sac.Org{sac.SAC, sac.MemorySide, sac.SMSide, sac.Static} {
			for k := 0; k < 11; k++ {
				cfg := tinyConfig().WithOrg(org)
				cfg.WorkloadScale += 64 * k
				shapes = append(shapes, cell{cfg: cfg, spec: spec})
			}
		}
	}
	return shapes[:fleetBatchesPerPass(e)*fleetBatchCells(e)]
}

type fleetInst struct {
	e       *runEnv
	dir     string
	coord   *cluster.Coordinator
	coordHS *http.Server
	workers []*daemon
	agents  []*cluster.Agent
	cl      *client.Client
	shapes  []cell
	refs    [][]byte     // canonical in-process result of each shape
	refSim  []*sac.Stats // the same results, for the simulated counters
	nextKey int64        // MaxCycles offset of the next cell: every key is new
}

// setupFleetCold boots a coordinator and its journaled workers over loopback
// HTTP, waits until both are on the ring, and pushes one small batch through
// so connections are open before the timed phase.
func setupFleetCold(e *runEnv) (instance, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "fleet-*")
	if err != nil {
		return nil, err
	}
	in := &fleetInst{e: e, dir: dir, shapes: fleetShapes(e)}
	// Keys start at a seeded offset and never repeat within a run.
	in.nextKey = 1 + e.rng(rngKeys, 0).Int63n(1<<20)

	ccfg := cluster.Config{Registry: obs.NewRegistry()}
	if e.tr != nil {
		ccfg.Dial = func(url string) *client.Client {
			rt := spanTransport{next: client.DefaultTransport(), tr: e.tr, name: "cluster.dispatch", tid: tidEdge}
			return client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}),
				client.WithRetries(1), client.WithBackoff(50*time.Millisecond, 200*time.Millisecond))
		}
	}
	in.coord = cluster.New(ccfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.coordHS = &http.Server{Handler: spanHandler(e.tr, "cluster", tidCoord, in.coord.Handler())}
	go func() { _ = in.coordHS.Serve(ln) }()
	coordURL := "http://" + ln.Addr().String()

	for i := 0; i < fleetWorkers; i++ {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("worker-%d", i)), 1, 0, true, e.tr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.workers = append(in.workers, d)
		a, err := cluster.StartAgent(cluster.AgentConfig{
			Coordinator: coordURL,
			Info:        client.WorkerInfo{ID: fmt.Sprintf("worker-%d", i), URL: d.url},
			Health:      d.srv.HealthSnapshot,
		})
		if err != nil {
			in.close()
			return nil, err
		}
		in.agents = append(in.agents, a)
	}
	for deadline := time.Now().Add(10 * time.Second); in.coord.Fleet().Live < fleetWorkers; {
		if time.Now().After(deadline) {
			in.close()
			return nil, fmt.Errorf("fleet never reached %d live workers", fleetWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	in.cl = newClient(coordURL, 1, e.tr)
	warm := in.batch(e.rng(rngWarmup, 0).Perm(len(in.shapes))[:8])
	if _, err := in.run(warm, -1); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// batch turns shape indices into requests under fresh keys.
func (in *fleetInst) batch(shapeIdx []int) []client.JobRequest {
	reqs := make([]client.JobRequest, len(shapeIdx))
	for i, si := range shapeIdx {
		c := in.shapes[si]
		c.cfg.MaxCycles += in.nextKey
		in.nextKey++
		reqs[i] = toRequest(c)
	}
	return reqs
}

// run submits one batch and waits until every job is terminal, recording the
// two client calls as spans under root. It returns the terminal statuses in
// request order; they carry the results inline.
func (in *fleetInst) run(reqs []client.JobRequest, root int32) ([]client.JobStatus, error) {
	tr := in.e.tr
	id := tr.begin("client.submit", root, tidClient0)
	sts, err := in.cl.SubmitBatch(withSpan(context.Background(), id), reqs)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("batch refused: %w", err)
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	id = tr.begin("client.wait", root, tidClient0)
	final, err := in.cl.WaitAll(withSpan(context.Background(), id), ids)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("batch lost: %w", err)
	}
	for i, id := range ids {
		sts[i] = final[id]
	}
	return sts, nil
}

// prepare simulates every shape once in process: the bytes the fleet must
// return for any cell of that shape, whatever its key.
func (in *fleetInst) prepare() (err error) {
	in.refSim, in.refs, err = referenceResults(in.shapes)
	return err
}

// pass sends a seeded selection of shapes, all under new keys, batch by
// batch: submit, wait for every job to be terminal, check the results.
func (in *fleetInst) pass(n int) passResult {
	nb, bc := fleetBatchesPerPass(in.e), fleetBatchCells(in.e)
	order := in.e.rng(rngOrder, n).Perm(len(in.shapes))
	pr := passResult{cells: len(order), clients: 1, sources: map[string]int{}}
	tr := in.e.tr
	type done struct {
		shapes []int
		final  []client.JobStatus
	}
	var batches []done

	m := startPassMeter()
	root := tr.begin("harness.pass", -1, tidClient0)
	for b := 0; b < nb; b++ {
		if b > 0 {
			m.lap() // sample the host between batches
		}
		shapes := order[b*bc : (b+1)*bc]
		reqs := in.batch(shapes)
		t0 := time.Now()
		final, err := in.run(reqs, root)
		pr.batchMs = append(pr.batchMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			for range reqs {
				pr.fail("%v", err)
			}
			continue
		}
		batches = append(batches, done{shapes, final})
	}
	tr.end(root)
	pr.reading = m.stop()

	for _, d := range batches {
		for i, st := range d.final {
			c := in.shapes[d.shapes[i]]
			switch {
			case st.State != client.StateDone:
				pr.fail("%s/%s: %s %s", c.spec.Name, c.cfg.Org, st.State, st.Error)
			case !bytes.Equal(st.Result, in.refs[d.shapes[i]]):
				pr.fail("%s/%s: fleet bytes differ from the in-process run", c.spec.Name, c.cfg.Org)
			default:
				pr.sources[st.Source]++
				pr.sim.add(in.refSim[d.shapes[i]])
			}
		}
	}
	return pr
}

func (in *fleetInst) counters() map[string]float64 {
	out := map[string]float64{}
	fs := in.coord.Fleet()
	var busiest int64
	for _, w := range fs.Workers {
		out["cluster.dispatched"] += float64(w.Dispatched)
		busiest = max(busiest, w.Dispatched)
	}
	out["cluster.steals"] = float64(fs.Steals)
	out["cluster.dedup"] = float64(fs.DedupHits)
	if d := out["cluster.dispatched"]; d > 0 {
		out["cluster.placement_skew"] = float64(busiest) / (d / float64(len(fs.Workers)))
	}
	for _, w := range in.workers {
		out["store.hits"] += float64(w.st.Hits())
		out["store.misses"] += float64(w.st.Misses())
		out["store.hot_len"] += float64(w.st.HotLen())
		out["journal.records"] += w.reg.Counter("sacd_journal_appends_total", "").Value()
	}
	return out
}

func (in *fleetInst) close() {
	for _, a := range in.agents {
		a.Close()
	}
	for _, w := range in.workers {
		w.stop()
	}
	if in.coord != nil {
		in.coord.Close()
	}
	if in.coordHS != nil {
		in.coordHS.Close()
	}
	os.RemoveAll(in.dir)
}
