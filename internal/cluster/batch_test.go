package cluster

// Tests for the coordinator's batch serving path: jobs:batch fan-out by
// ring placement, jobs:watch collection, and byte-identity of batched
// remote results against in-process simulation.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

// TestClusterBatchDedup submits one batch holding each cell twice: the
// coordinator must collapse duplicates onto one flight per key (one member
// simulates, its twin joins), and both members must return the same bytes.
func TestClusterBatchDedup(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)
	cc := newClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cells := []client.JobRequest{
		tinyRequest("BP", "SAC", 0),
		tinyRequest("RN", "memory-side", 0),
	}
	var batch []client.JobRequest
	for _, cell := range cells {
		batch = append(batch, cell, cell)
	}
	sts, err := cc.SubmitBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != len(batch) {
		t.Fatalf("got %d statuses, want %d", len(sts), len(batch))
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	final, err := cc.WaitAll(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		st := final[id]
		if st.State != client.StateDone {
			t.Fatalf("job %d finished %s: %s", i, st.State, st.Error)
		}
		if raws[i], err = cc.ResultRaw(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Per duplicate pair: identical bytes, and only one member led a flight.
	for p := 0; p < len(cells); p++ {
		a, b := 2*p, 2*p+1
		if !bytes.Equal(raws[a], raws[b]) {
			t.Errorf("pair %d: duplicate results differ", p)
		}
		srcA, srcB := final[ids[a]].Source, final[ids[b]].Source
		joins := 0
		for _, src := range []string{srcA, srcB} {
			if src == client.SourceDedup || src == client.SourceMemo {
				joins++
			}
		}
		if joins != 1 {
			t.Errorf("pair %d: sources %q/%q, want exactly one dedup/memo join", p, srcA, srcB)
		}
	}
}

// TestRemoteByteIdentity pins the promise sacsweep -remote rests on, over
// the batch path it now uses: cells shipped through a client.Batcher against
// a fleet come back byte-identical to in-process simulation — and duplicate
// concurrent cells still match even though they dedup onto one flight.
func TestRemoteByteIdentity(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cells := []client.JobRequest{
		tinyRequest("BP", "SAC", 0),
		tinyRequest("RN", "memory-side", 0),
		tinyRequest("BP", "SAC", 600),
		tinyRequest("BP", "SAC", 0), // duplicate: joins the first cell's flight
	}
	local := make([][]byte, len(cells))
	for i, req := range cells {
		spec, err := workload.ByName(req.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		cfg := *req.Config
		org, err := llc.ParseOrg(req.Org)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Org = org
		res, err := backend.Run(cfg, spec, gpu.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if local[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	// All cells concurrently through one Batcher, so they coalesce into
	// jobs:batch submissions collected by shared watches.
	b := client.NewBatcher(newClient(hs.URL))
	remote := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, req := range cells {
		wg.Add(1)
		go func(i int, req client.JobRequest) {
			defer wg.Done()
			res, err := b.Run(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			remote[i], errs[i] = json.Marshal(res)
		}(i, req)
	}
	wg.Wait()
	for i := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if !bytes.Equal(remote[i], local[i]) {
			t.Fatalf("cell %d (%s/%s scale=%d): remote result differs from in-process:\nremote %s\nlocal  %s",
				i, cells[i].Benchmark, cells[i].Org, cells[i].Config.WorkloadScale, remote[i], local[i])
		}
	}
}
