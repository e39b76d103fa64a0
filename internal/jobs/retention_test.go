package jobs

import (
	"bytes"
	"context"
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
	return New(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		Admit:   func([]*Job) error { return nil },
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
	tb := New(Config{
		Resolve: func(req client.JobRequest) (*Identity, error) { return &Identity{Key: req.Benchmark}, nil },
		Admit:   func([]*Job) error { return nil },
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
	if st := tb.status(again, false); st.State != client.StateDone {
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

	start := time.Now()
	resp, err := tb.Watch(ctx, []string{young, live}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 10*time.Second || len(resp.Jobs) != 1 || resp.Jobs[0].ID != young ||
		!bytes.Equal(resp.Jobs[0].Result, rawResult) {
		t.Fatalf("watch on a retained id answered %+v after %s, want it at once with its result inline", resp, waited)
	}
	if st, ok := tb.Cancel(young); !ok || !reflect.DeepEqual(st, final) {
		t.Fatalf("cancel of a retained id answered known=%v %+v, want the final status %+v", ok, st, final)
	}
	if raw, _, _ := tb.ResultRaw(young); !bytes.Equal(raw, rawResult) {
		t.Fatalf("retained result %s, want %s", raw, rawResult)
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
		raw, _, rawKnown := tb.ResultRaw(st.ID)
		_, cancelKnown := tb.Cancel(st.ID)
		resp, err := tb.Watch(context.Background(), []string{st.ID}, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(sts)-kept {
			if !known || status.State != client.StateDone || len(raw) != len(result) || len(resp.Jobs) != 1 {
				t.Fatalf("newest job %d: known=%v %s with %d result bytes, watch %d jobs; want done with its result",
					i, known, status.State, len(raw), len(resp.Jobs))
			}
		} else if known || rawKnown || cancelKnown || len(resp.Unknown) != 1 {
			t.Fatalf("dropped job %d answers status %v, result %v, cancel %v, watch unknown %v; want unknown as if swept",
				i, known, rawKnown, cancelKnown, resp.Unknown)
		}
	}
	if n := tb.Len(); n != kept {
		t.Fatalf("Len = %d, want the %d newest statuses", n, kept)
	}
}
