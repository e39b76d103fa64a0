package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// rawResult is what the test executors answer with.
var rawResult = []byte(`{"Cycles":7}`)

// testTable is a table whose admitted jobs stay queued until the test runs
// them, and whose executions answer rawResult at once.
func testTable(m Metrics) *Table {
	return queuing(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		Execute: func(context.Context, *Job) Outcome {
			return Outcome{Raw: rawResult, Cycles: 7, Source: client.SourceSim}
		},
		Metrics: m,
	})
}

// TestFlightLandsBeforeDone: a leader's flight is complete before its job
// is seen done, so a same-key job that comes after always recalls it and
// never joins a flight that is over in all but name. The log line settle
// writes after publishing yields, to give the resubmission its chance.
func TestFlightLandsBeforeDone(t *testing.T) {
	tb := testTable(Metrics{})
	tb.cfg.Logf = func(string, ...any) { runtime.Gosched() }
	for i := range 1000 {
		ident := &Identity{Key: fmt.Sprintf("cell-%d", i)}
		lead := NewJob(ident)
		go tb.Run(lead)
		<-lead.Done()
		if again := NewJob(ident); !tb.Recall(again) {
			t.Fatalf("leader %d was done but its flight had not landed: a resubmission would join, not recall", i)
		}
	}
}

// TestCanceledLeaderLandsFlight: a cancel that read its job as queued can
// settle it after a worker began it and opened its flight. The leader's own
// settle then claims nothing, yet its flight must still land, or every later
// job with that key joins a flight that never ends.
func TestCanceledLeaderLandsFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	tb := queuing(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		Execute: func(context.Context, *Job) Outcome {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
			return Outcome{Raw: rawResult, Cycles: 7, Source: client.SourceSim}
		},
	})
	sts, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: "cell"}})
	if err != nil {
		t.Fatal(err)
	}
	lead := tb.Get(sts[0].ID)
	go tb.Run(lead)
	<-entered
	tb.settle(lead, Outcome{Err: errCanceled}, "", nil) // cancel's settle, late
	close(release)
	if st, _ := tb.Status(lead.ID); st.State != client.StateCanceled {
		t.Fatalf("leader %s, want canceled", st.State)
	}

	again := NewJob(&Identity{Key: "cell"})
	go tb.Run(again)
	select {
	case <-again.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("a same-key job waited on the canceled leader's flight, which never landed")
	}
	if st := tb.status(again); st.State != client.StateDone {
		t.Fatalf("same-key job ended %s (%s), want done", st.State, st.Error)
	}
}

// TestRetentionQueue pins what a settled job leaves behind: its final
// status, queryable until Retention passes it, while live jobs stay
// whatever their age. A Sweep whose cutoff falls between two finishes drops
// only the older; a retained id answers Watch at once with its result
// inline and Cancel with its final status unchanged; jobs a caller drives
// itself (NewJob and Run) are never retained.
func TestRetentionQueue(t *testing.T) {
	reg := obs.NewRegistry()
	retainedGauge := reg.Gauge("retained", "")
	tb := testTable(Metrics{Retained: retainedGauge})
	sts, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: "old"}, {Benchmark: "young"}, {Benchmark: "live"}})
	if err != nil {
		t.Fatal(err)
	}
	old, young, live := sts[0].ID, sts[1].ID, sts[2].ID
	ctx := context.Background()
	tb.RunDirect(ctx, tb.Get(old))
	time.Sleep(2 * time.Millisecond)
	cutoff := time.Now()
	time.Sleep(2 * time.Millisecond)
	tb.RunDirect(ctx, tb.Get(young))
	if n := tb.Len(); n != 3 {
		t.Fatalf("Len = %d before the sweep, want 3", n)
	}

	tb.Sweep(cutoff.Add(Retention))
	if _, ok := tb.Status(old); ok {
		t.Fatal("the job that finished before the cutoff is still known")
	}
	final, ok := tb.Status(young)
	if !ok || final.State != client.StateDone || final.FinishedAt == nil {
		t.Fatalf("the job that finished after the cutoff: known=%v %+v", ok, final)
	}
	if st, ok := tb.Status(live); !ok || st.State != client.StateQueued {
		t.Fatalf("the live job: known=%v %+v, want queued", ok, st)
	}
	if n, g := tb.Len(), retainedGauge.Value(); n != 2 || g != 1 {
		t.Fatalf("after the sweep Len = %d and the retained gauge %v, want 2 and 1", n, g)
	}

	// A watch on a retained and a live id parks until the live one settles,
	// then answers both, the retained one's result inline.
	got := make(chan client.WatchResponse, 1)
	go func() {
		resp, err := tb.Watch(ctx, []string{young, live}, time.Minute)
		if err != nil {
			t.Error(err)
		}
		got <- resp
	}()
	awaitParked(t, tb.Get(live))
	tb.RunDirect(ctx, tb.Get(live))
	select {
	case resp := <-got:
		if len(resp.Jobs) != 2 || resp.Jobs[0].ID != young || !bytes.Equal(resp.Jobs[0].Result, rawResult) ||
			resp.Jobs[1].ID != live || resp.Jobs[1].State != client.StateDone {
			t.Fatalf("watch answered %+v, want the retained job with its result inline, then the live one done", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the watch did not answer once the live job settled")
	}
	if st, ok := tb.Cancel(young); !ok || !reflect.DeepEqual(st, final) {
		t.Fatalf("cancel of a retained id answered known=%v %+v, want the final status %+v", ok, st, final)
	}
	if !bytes.Equal(final.Result, rawResult) {
		t.Fatalf("retained status carries result %s, want %s", final.Result, rawResult)
	}

	own := testTable(Metrics{})
	for i := range 8 {
		j := NewJob(&Identity{Key: fmt.Sprint(i)})
		own.Run(j)
		<-j.Done()
	}
	if n := own.Len(); n != 0 {
		t.Fatalf("jobs driven through NewJob and Run left Len = %d, want 0", n)
	}
}

// TestRetainedBytesBound pushes four times RetainedBytes of final statuses
// through a table: what it retains never passes the bound, the newest ids
// answer, and the ids it dropped answer as swept ones do.
func TestRetainedBytesBound(t *testing.T) {
	result := bytes.Repeat([]byte("7"), 1<<20) // shared: charged per status, held once
	tb := testTable(Metrics{})
	tb.cfg.Execute = func(context.Context, *Job) Outcome {
		return Outcome{Raw: result, Cycles: 7, Source: client.SourceSim}
	}
	reqs := make([]client.JobRequest, 4*RetainedBytes/len(result))
	for i := range reqs {
		reqs[i].Benchmark = fmt.Sprint(i)
	}
	sts, _, err := tb.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		tb.RunDirect(context.Background(), tb.Get(st.ID))
		tb.mu.Lock()
		retained := tb.retained
		tb.mu.Unlock()
		if retained > RetainedBytes {
			t.Fatalf("after %s the table retains %d bytes, over its bound of %d", st.ID, retained, RetainedBytes)
		}
	}
	kept := RetainedBytes / (statusOverhead + len(result))
	for i, st := range sts {
		status, known := tb.Status(st.ID)
		canceled, cancelKnown := tb.Cancel(st.ID)
		resp, err := tb.Watch(context.Background(), []string{st.ID}, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(sts)-kept {
			if !known || status.State != client.StateDone || len(status.Result) != len(result) ||
				len(canceled.Result) != len(result) || len(resp.Jobs) != 1 {
				t.Fatalf("newest job %d: known=%v %s with %d result bytes (cancel %d), watch %d jobs; want done with its result",
					i, known, status.State, len(status.Result), len(canceled.Result), len(resp.Jobs))
			}
		} else if known || cancelKnown || len(resp.Unknown) != 1 {
			t.Fatalf("dropped job %d answers status %v, cancel %v, watch unknown %v; want unknown as if swept",
				i, known, cancelKnown, resp.Unknown)
		}
	}
	if n := tb.Len(); n != kept {
		t.Fatalf("Len = %d, want the %d newest statuses", n, kept)
	}
}

// TestFlightsRetireWithStatuses pushes four times RetainedBytes of cells,
// each leading its own flight, through a table: a completed flight goes
// when its leader's status is popped, so the flights never outnumber the
// retained statuses, a popped key executes again, and a retained one still
// recalls.
func TestFlightsRetireWithStatuses(t *testing.T) {
	result := bytes.Repeat([]byte("7"), 1<<20)
	tb := testTable(Metrics{})
	executed := 0
	tb.cfg.Execute = func(context.Context, *Job) Outcome {
		executed++
		return Outcome{Raw: result, Cycles: 7, Source: client.SourceSim}
	}
	run := func(key string) client.JobStatus {
		sts, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: key}})
		if err != nil {
			t.Fatal(err)
		}
		tb.Run(tb.Get(sts[0].ID))
		st, _ := tb.Status(sts[0].ID)
		return st
	}
	n := 4 * RetainedBytes / len(result)
	for i := range n {
		run(fmt.Sprint(i))
		if f, s := tb.Flights(), tb.Len(); f > s {
			t.Fatalf("after cell %d the table holds %d flights for %d statuses", i, f, s)
		}
	}
	if executed != n {
		t.Fatalf("%d executions for %d unique cells", executed, n)
	}
	if st := run("0"); st.Source != client.SourceSim || executed != n+1 {
		t.Fatalf("a popped key answered source %q after %d executions, want %q after %d",
			st.Source, executed, client.SourceSim, n+1)
	}
	if st := run(fmt.Sprint(n - 1)); st.Source != client.SourceMemo || executed != n+1 {
		t.Fatalf("a retained key answered source %q after %d executions, want %q after %d",
			st.Source, executed, client.SourceMemo, n+1)
	}
}

// TestPoppedLeaderLeavesNewFlight: a cancel that read its job as queued can
// settle it after a worker began it and opened its flight, and before the
// worker's canceled branch lands that flight (TestCanceledLeaderLandsFlight's
// window; the blocked Execute holds it open here). If the canceled status is
// popped in that window, its flight is retired and a same-key job leads a new
// one; the old flight's failed landing must leave the new one in place.
func TestPoppedLeaderLeavesNewFlight(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	var old *Job
	tb := testTable(Metrics{})
	tb.cfg.Execute = func(_ context.Context, j *Job) Outcome {
		entered <- struct{}{}
		<-release
		if j == old {
			return Outcome{Err: errors.New("failed")}
		}
		return Outcome{Raw: rawResult, Cycles: 7, Source: client.SourceSim}
	}
	sts, _, err := tb.SubmitBatch([]client.JobRequest{{Benchmark: "cell"}})
	if err != nil {
		t.Fatal(err)
	}
	old = tb.Get(sts[0].ID)
	oldRan := make(chan struct{})
	go func() { tb.Run(old); close(oldRan) }()
	<-entered
	tb.settle(old, Outcome{Err: errCanceled}, "", nil) // cancel's settle, late
	tb.Sweep(time.Now().Add(Retention + time.Second))

	fresh := NewJob(&Identity{Key: "cell"})
	go tb.Run(fresh)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("a same-key job joined the flight of a leader whose status was popped")
	}
	close(release)
	<-fresh.Done()
	<-oldRan
	if again := NewJob(&Identity{Key: "cell"}); tb.Flights() != 1 || !tb.Recall(again) {
		t.Fatalf("after the old flight failed, %d flights and no recall: it evicted the new one", tb.Flights())
	}
}
