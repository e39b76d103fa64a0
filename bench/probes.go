package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/llc"
	"repro/internal/server"
	"repro/internal/store"
)

// Probes time one layer's public functions in isolation, on inputs shaped
// like the workloads'. They are the part of the per-layer table that neither
// spans nor profiles can give: the cost of one call.

// runProbes returns every probe metric. budget is the time each probe may
// measure for.
func runProbes(e *runEnv, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	cfg := sac.ScaledConfig()

	// cache: an L1-shaped array holding half the lines the loop asks for.
	l1 := cache.New(cache.Config{Sets: cfg.L1BytesPerSM / cfg.Geom.LineBytes / cfg.L1Ways, Ways: cfg.L1Ways, LineBytes: cfg.Geom.LineBytes})
	lines := uint64(2 * l1.Cfg().Lines())
	for l := uint64(0); l < lines; l += 2 {
		l1.Fill(l, 0, cache.PartLocal, false)
	}
	var next uint64
	out["cache.lookup_ns"] = timeLoop(budget, 4096, func() {
		if l1.Lookup(next%lines, 0) {
			sink++
		}
		next += 7
	})

	// llc: one slice-shaped SoA array, same hit/miss mix, through the fused
	// FindLine+CommitLookup the cycle loop uses.
	sliceLines := cfg.LLCBytesPerChip / cfg.Geom.LineBytes / cfg.SlicesPerChip
	arr := llc.NewArray(cache.Config{Sets: sliceLines / cfg.LLCWays, Ways: cfg.LLCWays, LineBytes: cfg.Geom.LineBytes, WriteBack: true})
	lines = uint64(2 * sliceLines)
	for l := uint64(0); l < lines; l += 2 {
		arr.Fill(l, 0, cache.PartLocal, false)
	}
	next = 0
	out["llc.lookup_ns"] = timeLoop(budget, 4096, func() {
		if arr.CommitLookup(arr.FindLine(next%lines), 0) {
			sink++
		}
		next += 7
	})

	// core: the CRD as gpu.New sizes it, and one EAB decision.
	crd := core.NewCRD(core.CRDConfig{Sets: 8, Ways: 16, Chips: cfg.Chips, Sectors: 1,
		LLCSetsPerChip: sliceLines / cfg.LLCWays * cfg.SlicesPerChip})
	next = 0
	out["core.crd_access_ns"] = timeLoop(budget, 4096, func() {
		if crd.Access(next%lines, int(next)%cfg.Chips, 0) {
			sink++
		}
		next += 7
	})
	inputs := core.WorkloadInputs{RLocal: 0.4,
		MemSide: core.ConfigInputs{LLCHit: 0.8, LSU: 0.9}, SMSide: core.ConfigInputs{LLCHit: 0.5, LSU: 0.8}}
	arch := cfg.ArchParams()
	out["core.decide_ns"] = timeLoop(budget, 4096, func() {
		if core.Decide(arch, inputs, 0.05).PickSM {
			sink++
		}
	})

	// workload: building one warp's stream and draining it.
	spec, err := sac.Benchmark("GEMM")
	if err != nil {
		return nil, err
	}
	mach := sweepConfig().Machine()
	var accesses int64
	perStream := timeLoop(budget, 1, func() {
		st := spec.NewStream(mach, 0, 1, 2, 3)
		accesses = st.Len()
		for {
			a, ok := st.Next()
			if !ok {
				break
			}
			sink += a.Line
		}
	})
	out["workload.stream_ns_per_access"] = perStream / float64(max(accesses, 1))

	// gpu: the phase-parallel stepper at 2 chip workers against serial, on
	// one small SM-side cell (ROADMAP item 1 asks for this audit).
	sn, err := sac.Benchmark("SN")
	if err != nil {
		return nil, err
	}
	reps := 3
	if e.smoke() {
		reps = 1
	}
	simWall := func(workers int) (float64, error) {
		var ts []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := sac.Run(sweepConfig().WithOrg(sac.SMSide), sn, sac.WithWorkers(workers)); err != nil {
				return 0, err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		return median(ts), nil
	}
	w1, err := simWall(1)
	if err != nil {
		return nil, err
	}
	w2, err := simWall(2)
	if err != nil {
		return nil, err
	}
	out["gpu.parallel_w2_ratio"] = w2 / w1

	// store: key derivation, then put / hot read / disk read of estimate
	// results in a scratch store.
	cells := estimateUniverse(sizeSmoke)
	out["store.key_ns"] = timeLoop(budget, 64, func() {
		sink += uint64(len(store.KeyAt(cells[0].cfg, cells[0].spec.Name, "", string(cells[0].fidelity))))
	})
	dir, err := os.MkdirTemp(e.tmpDir, "probe-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	results := make([]*sac.Stats, len(cells))
	keys := make([]string, len(cells))
	for i, c := range cells {
		if results[i], err = runCell(c); err != nil {
			return nil, err
		}
		keys[i] = store.KeyAt(c.cfg, c.spec.Name, "", string(c.fidelity))
	}
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	var putErr error
	i := 0
	out["store.put_ns"] = timeLoop(budget, len(cells), func() {
		c := cells[i%len(cells)]
		if err := st.PutRunAt(c.cfg, c.spec.Name, "", string(c.fidelity), results[i%len(cells)]); err != nil {
			putErr = err
		}
		i++
	})
	if putErr != nil {
		st.Close()
		return nil, putErr
	}
	getAll := func(s *store.Store) {
		for _, k := range keys {
			if raw, _, ok := s.GetRaw(k); ok {
				sink += uint64(len(raw))
			}
		}
	}
	getAll(st) // first read verifies from disk and fills the hot tier
	out["store.get_hot_ns"] = timeLoop(budget, 1, func() { getAll(st) }) / float64(len(keys))
	if err := st.Close(); err != nil {
		return nil, err
	}
	// Disk reads: every reopen starts with an empty hot tier, so the first
	// read of each key pays the file read and the SHA-256 verify.
	var disk []float64
	for rep := 0; rep < 5; rep++ {
		cold, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		getAll(cold)
		disk = append(disk, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		cold.Close()
	}
	out["store.get_disk_ns"] = median(disk)

	// journal: appending accept records the size sacd writes.
	jnl, _, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	req := toRequest(cells[0])
	rawReq, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var appendErr error
	i = 0
	out["journal.append_ns"] = timeLoop(budget, 256, func() {
		if err := jnl.Append(journal.Record{Op: journal.OpAccept, ID: fmt.Sprintf("j%016x", i), Req: rawReq}); err != nil {
			appendErr = err
		}
		i++
	})
	jnl.Close()
	if appendErr != nil {
		return nil, appendErr
	}

	// server: request resolution, and a warm batch submitted directly (no
	// HTTP) — the handler-minus-this difference is decode + encode + gzip.
	out["server.resolve_ns"] = timeLoop(budget, 64, func() {
		if rj, err := server.ResolveRequest(req, ""); err == nil {
			sink += uint64(len(rj.Key))
		}
	})
	d, err := startDaemon(filepath.Join(dir, "sacd"), 0, 0, false, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	reqs := make([]client.JobRequest, len(cells))
	for i, c := range cells {
		reqs[i] = toRequest(c)
	}
	var submitErr error
	submit := func() {
		sts, _, err := d.srv.SubmitBatch(reqs)
		if err != nil {
			submitErr = err
		}
		sink += uint64(len(sts))
	}
	submit() // warm the store
	out["server.submit_batch_ns_per_job"] = timeLoop(budget, 1, submit) / float64(len(reqs))
	if submitErr != nil {
		return nil, submitErr
	}

	// cluster: ring placement of one key on a two-worker ring.
	ring := cluster.NewRing(0)
	ring.Add("worker-0")
	ring.Add("worker-1")
	out["cluster.ring_owner_ns"] = timeLoop(budget, 1024, func() {
		if id, ok := ring.Owner(keys[i%len(keys)]); ok {
			sink += uint64(len(id))
		}
		i++
	})
	return out, nil
}
