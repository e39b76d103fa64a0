package server

// Tests for what sacd gets from the shared job engine: the settle ordering
// (durable before visible) and the retention sweep.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/jobs"
)

// TestTerminalDurableBeforeVisible parks a watcher on a job's done channel
// and reads the journal's live count the instant it wakes: on every path
// into a terminal state — done, failed by a panic on the execution path,
// expired mid-run, canceled while queued — the done record must already be
// on disk, so the job's own accept is never still live.
func TestTerminalDurableBeforeVisible(t *testing.T) {
	const panicBench, lateBench = "BP", "SN"
	var s *Server
	s = New(Config{Workers: 1, QueueCap: 16,
		JournalPath: filepath.Join(t.TempDir(), "journal.wal"),
		Chaos: Chaos{BeforeRun: func(id string) {
			st, _ := s.Status(id)
			switch st.Benchmark {
			case panicBench:
				panic("chaos: worker killed mid-job")
			case lateBench:
				time.Sleep(30 * time.Millisecond) // outlive the 10ms deadline
			}
		}}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	liveAtWake := func(req client.JobRequest, cancel bool) (client.JobStatus, int) {
		t.Helper()
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		woke := make(chan int, 1)
		go func() {
			<-s.Get(st.ID).Done()
			woke <- s.jnl.Live()
		}()
		if cancel {
			if _, ok := s.Cancel(st.ID); !ok {
				t.Error("cancel of a queued job reported it unknown")
			}
		}
		select {
		case live := <-woke:
			fin, _ := s.Status(st.ID)
			return fin, live
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never reached a terminal state", st.ID)
			return client.JobStatus{}, 0
		}
	}

	// Workers not started yet: the job is canceled out of the queue.
	if fin, live := liveAtWake(tinyRequest("RN", "memory-side"), true); fin.State != client.StateCanceled || live != 0 {
		t.Fatalf("canceled-in-queue: state %s, journal live %d at wake; want canceled, 0", fin.State, live)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	late := tinyRequest(lateBench, "SAC")
	late.TimeoutMS = 10
	for _, tc := range []struct {
		req  client.JobRequest
		want string
	}{
		{tinyRequest("RN", "SAC"), client.StateDone},
		{tinyRequest(panicBench, "SAC"), client.StateFailed},
		{late, client.StateExpired},
	} {
		fin, live := liveAtWake(tc.req, false)
		if fin.State != tc.want {
			t.Fatalf("%s: finished %s (%s), want %s", tc.req.Benchmark, fin.State, fin.Error, tc.want)
		}
		if live != 0 {
			t.Fatalf("%s: watcher woke on %s with its own accept still live in the journal (%d)", tc.req.Benchmark, fin.State, live)
		}
	}
}

// TestServerForgets pins retention on sacd: past jobs.Retention a finished
// job leaves the table (its status is unknown, healthz counts only what is
// live, and client.WaitAll reports the aged-out id), a finished flight leaves
// the memo (a resubmission reads the store), and queued and running jobs and
// the journal's live set are untouched however old they are.
func TestServerForgets(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var gated string
	known := make(chan struct{}) // closed once gated is set
	s, c := testDaemon(t, Config{Workers: 1, QueueCap: 16,
		Store:       openTestStore(t, filepath.Join(dir, "cache")),
		JournalPath: filepath.Join(dir, "journal.wal"),
		Chaos: Chaos{BeforeRun: func(id string) {
			select {
			case <-known:
				if id == gated {
					<-gate
				}
			default: // the first job runs before anything is gated
			}
		}}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	finished, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if finished, err = c.Wait(ctx, finished.ID); err != nil || finished.State != client.StateDone {
		t.Fatalf("first job: %v %+v", err, finished)
	}
	running, err := s.Submit(tinyRequest("BP", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	gated = running.ID
	close(known)
	queued, err := s.Submit(tinyRequest("SN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}

	s.Sweep(time.Now().Add(jobs.Retention + time.Second))

	if _, ok := s.Status(finished.ID); ok {
		t.Fatal("finished job still known after the retention window")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, ok := s.Status(id); !ok || st.Done() {
			t.Fatalf("live job %s swept or terminal: known=%v %+v", id, ok, st)
		}
	}
	if h := s.HealthSnapshot(); h.Jobs != 2 || h.JournalLive != 2 {
		t.Fatalf("after sweep: jobs=%d journal_live=%d, want the 2 live jobs in both", h.Jobs, h.JournalLive)
	}
	if _, err := c.WaitAll(ctx, []string{finished.ID}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("WaitAll on an aged-out id returned %v, want an unknown-job error", err)
	}

	close(gate)
	final, err := c.WaitAll(ctx, []string{running.ID, queued.ID})
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range final {
		if st.State != client.StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
	// The first cell's flight was swept with its job: a resubmission is a
	// store read, not a memo recall.
	again, err := c.Submit(ctx, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if again, err = c.Wait(ctx, again.ID); err != nil || again.Source != client.SourceStore {
		t.Fatalf("post-sweep resubmission: %v source=%q, want store", err, again.Source)
	}
}
