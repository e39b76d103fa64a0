package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/client"
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
	tb := New(Config{
		Resolve: func(req client.JobRequest) (Identity, error) { return Identity{Key: req.Benchmark}, nil },
		Admit:   func([]*Job) error { return nil },
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
		st, err := tb.Submit(client.JobRequest{Benchmark: fmt.Sprintf("cell-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
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
