package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// TestCancelNeverLeavesExecuteRunning races Cancel against a worker's Run
// on a freshly submitted job, many times over. A job that ends canceled
// either never entered Execute or saw its context canceled there: a cancel
// that reads the job between the worker's begin and its leader publishing
// the context's cancel func must not settle it while the execution runs on
// to the end uncanceled. Execute waits at most 2 s for its context, so an
// execution the cancel missed costs its iteration that long, then fails it.
func TestCancelNeverLeavesExecuteRunning(t *testing.T) {
	type execution struct {
		exited   chan struct{}
		canceled bool // written before exited closes
	}
	var mu sync.Mutex
	execs := map[string]*execution{}
	tb := queuing(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		Execute: func(ctx context.Context, j *Job) Outcome {
			e := &execution{exited: make(chan struct{})}
			mu.Lock()
			execs[j.ID] = e
			mu.Unlock()
			defer close(e.exited)
			select {
			case <-ctx.Done():
				e.canceled = true
				return Outcome{Err: ctx.Err()}
			case <-time.After(2 * time.Second):
				return Outcome{Raw: rawResult, Cycles: 7, Source: client.SourceSim}
			}
		},
	})
	for i := range 2000 {
		st := submit(t, tb, client.JobRequest{Benchmark: fmt.Sprintf("cell-%d", i)})
		j := tb.Get(st.ID)
		go tb.Run(j)
		go tb.Cancel(st.ID)
		<-j.Done()
		mu.Lock()
		e := execs[st.ID]
		mu.Unlock()
		if e != nil {
			<-e.exited
		}
		st, _ = tb.Status(st.ID)
		if st.State == client.StateCanceled && e != nil && !e.canceled {
			t.Fatalf("iteration %d: job %s reads canceled, but its Execute ran to the end uncanceled", i, st.ID)
		}
	}
}

// TestJoinerDetaches: two jobs join a leader blocked in Execute; one is
// canceled and the other's deadline passes, and each settles, canceled and
// expired, while the leader runs on with its context intact. The leader
// then lands done, and a later job of its key recalls it.
func TestJoinerDetaches(t *testing.T) {
	reg := obs.NewRegistry()
	dedup := reg.Counter("dedup", "")
	tb := testTable(Metrics{Dedup: dedup})
	entered, release, leaderErr := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	tb.cfg.Execute = func(ctx context.Context, _ *Job) Outcome {
		close(entered)
		<-release
		leaderErr <- ctx.Err()
		return Outcome{Raw: rawResult, Cycles: 7, Source: client.SourceSim}
	}
	sts, _, err := tb.SubmitBatch([]client.JobRequest{
		{Benchmark: "cell"}, {Benchmark: "cell"}, {Benchmark: "cell", TimeoutMS: 500}})
	if err != nil {
		t.Fatal(err)
	}
	lead, canceled, expired := sts[0].ID, sts[1].ID, sts[2].ID
	go tb.Run(tb.Get(lead))
	<-entered
	go tb.Run(tb.Get(canceled))
	go tb.Run(tb.Get(expired))
	for deadline := time.Now().Add(10 * time.Second); dedup.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v jobs joined the leader's flight, want 2", dedup.Value())
		}
	}
	tb.Cancel(canceled)
	for id, want := range map[string]string{canceled: client.StateCanceled, expired: client.StateExpired} {
		select {
		case <-tb.Get(id).Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("joiner %s never detached, want %s", id, want)
		}
		if st, _ := tb.Status(id); st.State != want || st.Source != "" {
			t.Fatalf("joiner %s: %s from %q, want %s from no source", id, st.State, st.Source, want)
		}
	}
	if st, _ := tb.Status(lead); st.State != client.StateRunning {
		t.Fatalf("leader %s while its joiners detached, want running", st.State)
	}

	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("the leader's context ended with its joiners: %v", err)
	}
	<-tb.Get(lead).Done()
	if st, _ := tb.Status(lead); st.State != client.StateDone {
		t.Fatalf("leader %s (%s), want done", st.State, st.Error)
	}
	again, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: "cell"}})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Recall(tb.Get(again[0].ID)) {
		t.Fatal("a later job of the leader's key found no flight to recall")
	}
	if st, _ := tb.Status(again[0].ID); st.State != client.StateDone || st.Source != client.SourceMemo {
		t.Fatalf("later job: %s from %q, want done from %q", st.State, st.Source, client.SourceMemo)
	}
}
