package cluster

// Tests for the coordinator's batch serving path: jobs:batch fan-out by
// ring placement, jobs:watch collection, and byte-identity of batched
// remote results against in-process simulation.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/eval"
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
		raws[i] = st.Result
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

// TestRemoteByteIdentity pins the promise sacsweep -remote rests on: a
// run-set shipped through Runner.RunAll to a fleet comes back byte-identical
// to in-process simulation. A duplicate cell shares its twin's result, and a
// ScaleInput variant, which the fleet cannot name, simulates here and is
// never submitted.
func TestRemoteByteIdentity(t *testing.T) {
	coord, hs := testCoordinator(t, nil)
	startWorker(t, hs.URL, "worker-a")
	startWorker(t, hs.URL, "worker-b")
	waitLive(t, coord, 2)

	bp, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	rn, err := workload.ByName("RN")
	if err != nil {
		t.Fatal(err)
	}
	cfg, wide := tinyConfig(), tinyConfig()
	wide.WorkloadScale = 600
	cells := []eval.RunRequest{
		{Cfg: cfg.WithOrg(llc.SAC), Spec: bp},
		{Cfg: cfg.WithOrg(llc.MemorySide), Spec: rn},
		{Cfg: wide.WithOrg(llc.SAC), Spec: bp},
		{Cfg: cfg.WithOrg(llc.SAC), Spec: bp}, // duplicate: shares the first cell's result
		{Cfg: cfg.WithOrg(llc.SAC), Spec: bp.ScaleInput(0.5)},
	}
	local := make([][]byte, len(cells))
	for i, q := range cells {
		res, err := backend.Run(q.Cfg, q.Spec, gpu.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if local[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	r := &eval.Runner{Remote: newClient(hs.URL)}
	runs, err := r.RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		remote, err := json.Marshal(runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(remote, local[i]) {
			t.Fatalf("cell %d (%s/%s scale=%d): remote result differs from in-process:\nremote %s\nlocal  %s",
				i, cells[i].Spec.Name, cells[i].Cfg.Org, cells[i].Cfg.WorkloadScale, remote, local[i])
		}
	}
	if runs[0] != runs[3] {
		t.Error("the duplicate cell did not share its twin's result")
	}
	if jobs := coord.Fleet().Jobs; jobs != 3 {
		t.Errorf("the fleet accepted %d jobs, want the 3 distinct cells it can name", jobs)
	}
}
