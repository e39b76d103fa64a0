package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/client"
)

// watchers counts the wake channels parked on j.
func watchers(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.watchers)
}

// awaitParked waits until a watch has listed its wake channel on j.
func awaitParked(t *testing.T, j *Job) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); watchers(j) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watch never parked")
		}
	}
}

// TestWatchParksWithoutGoroutinePerJob: a watch parked on 256 pending jobs
// lists one wake channel on each and starts no goroutine for them; a job
// that settles wakes it to rescan, but it answers only once every job is
// terminal, and it leaves no channel behind.
func TestWatchParksWithoutGoroutinePerJob(t *testing.T) {
	tb := New(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		// Admitted jobs stay queued: nothing runs them.
		Admit:   func([]*Job) error { return nil },
		Execute: func(context.Context, *Job) Outcome { return Outcome{} },
	})
	reqs := make([]client.JobRequest, 256)
	for i := range reqs {
		reqs[i].Benchmark = fmt.Sprintf("cell-%d", i)
	}
	sts, _, err := tb.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sts))
	all := make([]*Job, len(sts))
	for i, st := range sts {
		ids[i], all[i] = st.ID, tb.Get(st.ID)
	}

	before := runtime.NumGoroutine()
	type answer struct {
		resp client.WatchResponse
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := tb.Watch(context.Background(), ids, time.Minute)
		got <- answer{resp, err}
	}()
	awaitParked(t, all[len(all)-1])
	// The watch's own goroutine, and nothing per job; the slack absorbs
	// goroutines the runtime or an earlier test starts meanwhile.
	if grew := runtime.NumGoroutine() - before; grew > 4 {
		t.Fatalf("parking a watch on %d jobs started %d goroutines, want at most 4", len(ids), grew)
	}

	if _, ok := tb.Cancel(ids[100]); !ok {
		t.Fatal("cancel missed a registered job")
	}
	select {
	case a := <-got:
		t.Fatalf("the watch answered %d jobs while %d were still queued", len(a.resp.Jobs), len(ids)-1)
	case <-time.After(20 * time.Millisecond):
	}
	for _, id := range ids {
		tb.Cancel(id)
	}
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		canceled := map[string]bool{}
		for _, st := range a.resp.Jobs {
			canceled[st.ID] = st.State == client.StateCanceled
		}
		for _, id := range ids {
			if !canceled[id] {
				t.Fatalf("watch answered %d jobs without %s canceled, want all %d canceled", len(a.resp.Jobs), id, len(ids))
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("settling every watched job did not wake the watch")
	}
	for _, j := range all {
		if n := watchers(j); n != 0 {
			t.Fatalf("job %s still lists %d wake channels after the watch returned", j.ID, n)
		}
	}
}

// TestWatchAnswersTheSet: a watch answers once every id it names is
// terminal. {terminal, pending} parks until the pending job settles and
// answers both; {terminal, unknown} answers at once; at its timeout a watch
// answers the terminal subset found so far.
func TestWatchAnswersTheSet(t *testing.T) {
	tb := testTable(Metrics{})
	sts, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: "done"}, {Benchmark: "pending"}, {Benchmark: "stuck"}})
	if err != nil {
		t.Fatal(err)
	}
	done, pending, stuck := sts[0].ID, sts[1].ID, sts[2].ID
	ctx := context.Background()
	tb.RunDirect(ctx, tb.Get(done))

	resp, err := tb.Watch(ctx, []string{done, "jnosuchjob"}, time.Minute)
	if err != nil || len(resp.Jobs) != 1 || resp.Jobs[0].ID != done || len(resp.Unknown) != 1 {
		t.Fatalf("{terminal, unknown} answered %+v, %v; want the done job and the unknown id", resp, err)
	}

	got := make(chan client.WatchResponse, 1)
	go func() {
		resp, err := tb.Watch(ctx, []string{done, pending}, time.Minute)
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	awaitParked(t, tb.Get(pending))
	tb.RunDirect(ctx, tb.Get(pending))
	select {
	case resp := <-got:
		if len(resp.Jobs) != 2 || resp.Jobs[0].ID != done || resp.Jobs[1].ID != pending ||
			resp.Jobs[1].State != client.StateDone {
			t.Fatalf("{terminal, pending} answered %+v, want both done", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("{terminal, pending} did not answer once both were terminal")
	}

	resp, err = tb.Watch(ctx, []string{done, stuck}, 10*time.Millisecond)
	if err != nil || len(resp.Jobs) != 1 || resp.Jobs[0].ID != done || len(resp.Unknown) != 0 {
		t.Fatalf("a timed-out watch answered %+v, %v; want only the done job", resp, err)
	}
}
