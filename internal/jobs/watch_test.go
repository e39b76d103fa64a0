package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/client"
)

// TestWatchParksWithoutGoroutinePerJob: a watch parked on 256 pending jobs
// lists one wake channel on each and starts no goroutine for them; the first
// job to settle wakes it, and it leaves no channel behind on the others.
func TestWatchParksWithoutGoroutinePerJob(t *testing.T) {
	tb := New(Config{
		Resolve: func(req client.JobRequest) (Identity, error) { return Identity{Key: req.Benchmark}, nil },
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
	for i, st := range sts {
		ids[i] = st.ID
	}
	watchers := func(id string) int {
		j := tb.Get(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.watchers)
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
	for deadline := time.Now().Add(10 * time.Second); watchers(ids[len(ids)-1]) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watch never parked")
		}
	}
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
		if a.err != nil {
			t.Fatal(a.err)
		}
		if len(a.resp.Jobs) != 1 || a.resp.Jobs[0].ID != ids[100] || a.resp.Jobs[0].State != client.StateCanceled {
			t.Fatalf("watch answered %+v, want only the canceled job %s", a.resp.Jobs, ids[100])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("settling a watched job did not wake the watch")
	}
	for _, id := range ids {
		if n := watchers(id); n != 0 {
			t.Fatalf("job %s still lists %d wake channels after the watch returned", id, n)
		}
	}
}
