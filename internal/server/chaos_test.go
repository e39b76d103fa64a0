package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/journal"
	"repro/internal/store"
)

// waitTerminal polls until the job is terminal or the deadline passes.
func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) client.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("server does not know job %s", id)
		}
		if st.Done() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRecovery simulates kill -9 with jobs in flight: server 1 is
// abandoned mid-execution (no drain, no done records), and server 2 over
// the same journal must restore every accepted-but-unfinished job under its
// original ID, run each exactly once, and not re-run the job that finished
// before the crash.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var crashMode atomic.Bool
	var stuck atomic.Int64
	block := make(chan struct{})
	defer close(block) // unwedge the abandoned workers at test end
	s1 := New(Config{Workers: 2, QueueCap: 16, JournalPath: jp, Store: st,
		Chaos: Chaos{BeforeRun: func(string) {
			if crashMode.Load() {
				stuck.Add(1)
				<-block
			}
		}}})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	s1.Start()

	// Phase 1: one job completes normally — its done record and store
	// object must prevent any re-execution after the crash.
	doneSt, err := s1.Submit(tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s1, doneSt.ID, 60*time.Second); st.State != client.StateDone {
		t.Fatalf("pre-crash job finished %s: %s", st.State, st.Error)
	}

	// Phase 2: wedge both workers mid-job and stack two more behind them.
	crashMode.Store(true)
	cells := [][2]string{{"BP", "SAC"}, {"SN", "SAC"}, {"BP", "memory-side"}, {"SN", "memory-side"}}
	var ids []string
	for _, c := range cells {
		st, err := s1.Submit(tinyRequest(c[0], c[1]))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for deadline := time.Now().Add(10 * time.Second); stuck.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("workers never picked up jobs: %d stuck", stuck.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 3: "kill -9" — abandon s1 without draining. Its journal holds
	// accepts for all five jobs, starts for three, one done.
	s2 := New(Config{Workers: 2, QueueCap: 16, JournalPath: jp, Store: st})
	restored, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(ids) {
		t.Fatalf("restored %d jobs, want %d (the accepted-but-unfinished set)", restored, len(ids))
	}
	s2.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s2.Drain(ctx)
	})

	// Zero loss: every accepted job resumes under its original ID and
	// finishes.
	for _, id := range ids {
		if st := waitTerminal(t, s2, id, 120*time.Second); st.State != client.StateDone {
			t.Fatalf("restored job %s finished %s: %s", id, st.State, st.Error)
		}
	}
	// No duplicate execution: four distinct cells, four simulations.
	if got := int(s2.sims.Load()); got != len(cells) {
		t.Fatalf("restored server executed %d simulations, want %d", got, len(cells))
	}
	// The job done before the crash is answered from the store, not re-run.
	re, err := s2.Submit(tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s2, re.ID, 60*time.Second); st.Source != client.SourceStore {
		t.Fatalf("pre-crash job re-answered with source %q, want store", st.Source)
	}
	if got := int(s2.sims.Load()); got != len(cells) {
		t.Fatalf("pre-crash job was re-executed (%d runs, want %d)", got, len(cells))
	}
	h := s2.HealthSnapshot()
	if h.RecoveryErrors != 0 {
		t.Fatalf("clean journal reported %d recovery errors", h.RecoveryErrors)
	}
}

// TestDrainJournalExactlyOnce covers SIGTERM-mid-backlog: a drained server
// refuses new work, its queued jobs stay live in the journal, resume on
// restart under their IDs, execute exactly once, and a third life finds
// nothing left to restore plus a clean-shutdown mark.
func TestDrainJournalExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Workers never started: the backlog stays queued so Drain must carry
	// all of it across.
	s1 := New(Config{Workers: 1, QueueCap: 16, JournalPath: jp, Store: st})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, bm := range []string{"RN", "BP", "SN"} {
		jst, err := s1.Submit(tinyRequest(bm, "SAC"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if jst, _ := s1.Status(id); jst.State != client.StateRequeued {
			t.Fatalf("job %s state %q after drain, want requeued", id, jst.State)
		}
	}
	if _, err := s1.Submit(tinyRequest("RN", "SAC")); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining submit returned %v, want ErrDraining", err)
	}

	s2 := New(Config{Workers: 2, QueueCap: 16, JournalPath: jp, Store: st})
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ids) {
		t.Fatalf("restored %d jobs, want %d", n, len(ids))
	}
	s2.Start()
	for _, id := range ids {
		if jst := waitTerminal(t, s2, id, 120*time.Second); jst.State != client.StateDone {
			t.Fatalf("restored job %s finished %s: %s", id, jst.State, jst.Error)
		}
	}
	if got := int(s2.sims.Load()); got != len(ids) {
		t.Fatalf("restored jobs executed %d times, want exactly %d", got, len(ids))
	}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	// Third life: nothing live, clean shutdown visible in the replay.
	_, rep, err := journal.Open(jp, journal.Options{NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Live) != 0 {
		t.Fatalf("journal still holds %d live jobs after a full drain cycle", len(rep.Live))
	}
	if !rep.CleanShutdown {
		t.Fatal("drained journal missing clean-shutdown mark")
	}
}

// TestDeadlineExpiresInQueue checks a job whose deadline passes while
// queued fails fast with state "expired" — no worker time burned — and that
// the deadline is visible in its status.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16})
	req := tinyRequest("RN", "SAC")
	req.TimeoutMS = 25
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineAt == nil {
		t.Fatal("accepted status missing deadline_at")
	}
	time.Sleep(50 * time.Millisecond)
	s.Start() // workers first run after the deadline passed
	fin := waitTerminal(t, s, st.ID, 30*time.Second)
	if fin.State != client.StateExpired {
		t.Fatalf("state %q, want expired", fin.State)
	}
	if fin.Error == "" || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("expired job error %q does not mention the deadline", fin.Error)
	}
	if int(s.sims.Load()) != 0 {
		t.Fatal("expired-in-queue job was simulated")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// TestDeadlineCancelsRunningJob checks the deadline propagates into the
// execution context: a job whose deadline passes after its worker picks it
// up (chaos delay stretches the run) terminates "expired", not "failed".
func TestDeadlineCancelsRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16,
		Chaos: Chaos{RunDelay: 60 * time.Millisecond}})
	s.Start()
	req := tinyRequest("RN", "SAC")
	req.TimeoutMS = 25
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID, 30*time.Second)
	if fin.State != client.StateExpired {
		t.Fatalf("state %q (err %q), want expired", fin.State, fin.Error)
	}
	if !errors.Is(context.DeadlineExceeded, context.DeadlineExceeded) { // keep errors import honest
		t.Fatal("unreachable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// TestDegradedShedsBatchLane: once the oldest queued job outlives
// DegradedQueueAge, the daemon reports degraded, keeps accepting
// normal-lane work, sheds batch-lane work with 429 + Retry-After, and the
// client surfaces the hint.
func TestDegradedShedsBatchLane(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16, DegradedQueueAge: 10 * time.Millisecond})
	// Workers never started: the queue only ages.
	if _, err := s.Submit(tinyRequest("RN", "SAC")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)

	h := s.HealthSnapshot()
	if h.Status != client.HealthDegraded {
		t.Fatalf("health %q after queue aged past threshold, want degraded", h.Status)
	}
	if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "queued") {
		t.Fatalf("degraded health carries no queue-age reason: %v", h.Reasons)
	}
	if h.OldestQueuedMS < 10 {
		t.Fatalf("oldest_queued_ms %d, want >= threshold", h.OldestQueuedMS)
	}

	batch := tinyRequest("BP", "SAC")
	batch.Priority = client.PriorityBatch
	if _, err := s.Submit(batch); !errors.Is(err, ErrShedding) {
		t.Fatalf("degraded batch submit returned %v, want ErrShedding", err)
	}
	if _, err := s.Submit(tinyRequest("SN", "SAC")); err != nil {
		t.Fatalf("degraded daemon rejected normal-lane work: %v", err)
	}

	// Over HTTP the shed is a 429 with a Retry-After the client honors.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	_, err := c.Submit(context.Background(), batch)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("shed over HTTP: want 429, got %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("shed response carries no Retry-After")
	}
}

// TestJournalFailureUnhealthyAndHeals: a failing journal sync turns the
// daemon unhealthy — acknowledging an accept it cannot make durable would
// be a lie — and a recovered disk heals it on the next accept.
func TestJournalFailureUnhealthyAndHeals(t *testing.T) {
	var failing atomic.Bool
	s := New(Config{Workers: 1, QueueCap: 16,
		JournalPath: filepath.Join(t.TempDir(), "journal.wal"),
		JournalSync: true,
		Chaos: Chaos{JournalSync: func() error {
			if failing.Load() {
				return fmt.Errorf("injected: disk on fire")
			}
			return nil
		}}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinyRequest("RN", "SAC")); err != nil {
		t.Fatalf("healthy submit failed: %v", err)
	}

	failing.Store(true)
	if _, err := s.Submit(tinyRequest("BP", "SAC")); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("submit with failing journal returned %v, want ErrUnhealthy", err)
	}
	h := s.HealthSnapshot()
	if h.Status != client.HealthUnhealthy {
		t.Fatalf("health %q with failing journal, want unhealthy", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "journal") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unhealthy reasons missing the journal failure: %v", h.Reasons)
	}

	failing.Store(false)
	if _, err := s.Submit(tinyRequest("BP", "SAC")); err != nil {
		t.Fatalf("submit after disk recovery failed: %v", err)
	}
	if h := s.HealthSnapshot(); h.Status == client.HealthUnhealthy {
		t.Fatal("daemon still unhealthy after a successful journal append")
	}
}

// TestWorkerPanicContained: a panic on the execution path fails only its
// job. The worker survives, the failed flight is evicted, and the same cell
// retried later succeeds.
func TestWorkerPanicContained(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 1, QueueCap: 16,
		Chaos: Chaos{BeforeRun: func(string) {
			if calls.Add(1) == 1 {
				panic("chaos: worker killed mid-job")
			}
		}}})
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	st, err := s.Submit(tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID, 30*time.Second)
	if fin.State != client.StateFailed || !strings.Contains(fin.Error, "panic") {
		t.Fatalf("panicked job finished %q (%s), want failed with panic text", fin.State, fin.Error)
	}

	// Same cell again: the failed flight must not be memoized.
	st2, err := s.Submit(tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, st2.ID, 60*time.Second); fin.State != client.StateDone {
		t.Fatalf("retry after panic finished %s: %s", fin.State, fin.Error)
	}
	// And the worker survived to run a different cell too.
	st3, err := s.Submit(tinyRequest("BP", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, st3.ID, 60*time.Second); fin.State != client.StateDone {
		t.Fatalf("worker did not survive the panic: %s %s", fin.State, fin.Error)
	}
}

// TestChaosSoak hammers a journaled daemon with a mixed workload under
// active fault injection — periodic worker panics, dropped journal syncs,
// stretched executions, tight deadlines — and checks the service-level
// invariants: every accepted job reaches a terminal state, terminal states
// are only done/failed/expired, the journal's live set drains to zero, and
// a final restart finds nothing to restore. Run it under -race.
func TestChaosSoak(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "cache"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var runs, syncs atomic.Int64
	s := New(Config{Workers: 4, QueueCap: 128, JournalPath: jp, Store: st,
		JournalSync: true,
		Chaos: Chaos{
			BeforeRun: func(string) {
				if runs.Add(1)%5 == 0 {
					panic("chaos: periodic worker kill")
				}
			},
			// Every other sync is silently dropped (a lying disk): appends
			// must still succeed and the daemon must stay healthy.
			JournalSync: func() error { syncs.Add(1); return nil },
			RunDelay:    time.Millisecond,
		}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.Start()

	benchmarks := []string{"RN", "BP", "SN"}
	orgs := []string{"SAC", "memory-side", "SM-side"}
	lanesByI := []string{"", client.PriorityHigh, client.PriorityBatch}
	var accepted []string
	rejected := 0
	const jobs = 40
	for i := 0; i < jobs; i++ {
		req := tinyRequest(benchmarks[i%len(benchmarks)], orgs[(i/3)%len(orgs)])
		req.Priority = lanesByI[i%len(lanesByI)]
		if i%7 == 0 {
			req.TimeoutMS = 1 // expires in queue or mid-run
		}
		jst, err := s.Submit(req)
		if err != nil {
			// Shedding/backpressure under chaos is legal — losing an
			// *accepted* job is not.
			rejected++
			continue
		}
		accepted = append(accepted, jst.ID)
	}
	if len(accepted) == 0 {
		t.Fatal("chaos shed every submission; nothing exercised")
	}
	t.Logf("soak: %d accepted, %d rejected", len(accepted), rejected)

	for _, id := range accepted {
		fin := waitTerminal(t, s, id, 180*time.Second)
		switch fin.State {
		case client.StateDone, client.StateFailed, client.StateExpired:
		default:
			t.Fatalf("job %s terminal state %q is not done/failed/expired", id, fin.State)
		}
		if fin.State == client.StateFailed && !strings.Contains(fin.Error, "chaos") {
			t.Fatalf("job %s failed for a non-injected reason: %s", id, fin.Error)
		}
	}
	if syncs.Load() == 0 {
		t.Fatal("chaos sync hook never ran; JournalSync gate is broken")
	}

	// All terminal => the journal live set must be empty.
	s.mu.Lock()
	live := s.jnl.Live()
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("journal reports %d live jobs with every job terminal", live)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, JournalPath: jp, Store: st})
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("post-soak restart restored %d jobs, want 0", n)
	}
	if h := s2.HealthSnapshot(); h.RecoveryErrors != 0 {
		t.Fatalf("post-soak restart reports %d recovery errors", h.RecoveryErrors)
	}
}

// TestCorruptJournalSurfacesRecoveryErrors scribbles over a journal record
// and checks recovery proceeds, the loss is counted, and healthz reports it.
func TestCorruptJournalSurfacesRecoveryErrors(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.wal")

	s1 := New(Config{Workers: 1, QueueCap: 16, JournalPath: jp})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, bm := range []string{"RN", "BP", "SN"} {
		jst, err := s1.Submit(tinyRequest(bm, "SAC"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	// Abandon s1 (crash) and corrupt the middle accept record on disk.
	b, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	lines[1] = strings.Replace(lines[1], "accept", "ACCEPT", 1)
	if err := os.WriteFile(jp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, QueueCap: 16, JournalPath: jp})
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ids)-1 {
		t.Fatalf("restored %d jobs, want %d (one record corrupted)", n, len(ids)-1)
	}
	h := s2.HealthSnapshot()
	if h.RecoveryErrors != 1 {
		t.Fatalf("healthz recovery_errors = %d, want 1", h.RecoveryErrors)
	}
}
