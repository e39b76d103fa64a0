package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
		chaos: Chaos{BeforeRun: func(string) {
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
	doneSt, err := admit(s1, tinyRequest("RN", "SAC"))
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
		st, err := admit(s1, tinyRequest(c[0], c[1]))
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
	re, err := admit(s2, tinyRequest("RN", "SAC"))
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
		jst, err := admit(s1, tinyRequest(bm, "SAC"))
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
	if _, err := admit(s1, tinyRequest("RN", "SAC")); !errors.Is(err, ErrDraining) {
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

	// Third life: nothing live, clean shutdown visible in the replay (read
	// before Open's rewrite drops the mark).
	jnl, rep, err := journal.Open(jp, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
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
	st, err := admit(s, req)
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
		chaos: Chaos{BeforeRun: func(string) { time.Sleep(60 * time.Millisecond) }}})
	s.Start()
	req := tinyRequest("RN", "SAC")
	req.TimeoutMS = 25
	st, err := admit(s, req)
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

// TestDegradedStillAdmits: once the oldest queued job outlives
// degradedQueueAge, healthz reports degraded with the queue-age reason —
// the signal saccoord routes around — and the daemon still admits new work.
func TestDegradedStillAdmits(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16})
	s.degradedQueueAge = 10 * time.Millisecond
	// Workers never started: the queue only ages.
	if _, err := admit(s, tinyRequest("RN", "SAC")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != client.HealthDegraded {
		t.Fatalf("health %q after queue aged past threshold, want degraded", h.Status)
	}
	if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "oldest queued job waiting") {
		t.Fatalf("degraded health carries no queue-age reason: %v", h.Reasons)
	}
	if h.OldestQueuedMS < 10 {
		t.Fatalf("oldest_queued_ms %d, want >= threshold", h.OldestQueuedMS)
	}

	st, err := submit(context.Background(), c, tinyRequest("BP", "SAC"))
	if err != nil || st.State != client.StateQueued || st.QueueAhead != 1 {
		t.Fatalf("degraded daemon's answer to a new submission: %+v, %v; want it queued behind 1", st, err)
	}
}

// TestStalledWorkersUnhealthy: once every worker has run one job past
// stallAfter, the daemon reports unhealthy with both stall reasons and
// refuses new work.
func TestStalledWorkersUnhealthy(t *testing.T) {
	wedged, release := make(chan struct{}), make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 16, chaos: Chaos{BeforeRun: func(string) {
		close(wedged)
		<-release
	}}})
	s.stallAfter = 5 * time.Millisecond
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	t.Cleanup(func() { close(release) })

	if _, err := admit(s, tinyRequest("RN", "SAC")); err != nil {
		t.Fatal(err)
	}
	<-wedged
	h := s.HealthSnapshot()
	for deadline := time.Now().Add(10 * time.Second); h.Status != client.HealthUnhealthy; h = s.HealthSnapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("health %q with the only worker wedged, want unhealthy: %v", h.Status, h.Reasons)
		}
		time.Sleep(time.Millisecond)
	}
	reasons := strings.Join(h.Reasons, "; ")
	for _, want := range []string{"running one job longer than", "every worker is stalled"} {
		if !strings.Contains(reasons, want) {
			t.Errorf("unhealthy reasons %q lack %q", reasons, want)
		}
	}
	if _, err := admit(s, tinyRequest("BP", "SAC")); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("submit to a stalled daemon returned %v, want ErrUnhealthy", err)
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
		chaos: Chaos{JournalSync: func() error {
			if failing.Load() {
				return fmt.Errorf("injected: disk on fire")
			}
			return nil
		}}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := admit(s, tinyRequest("RN", "SAC")); err != nil {
		t.Fatalf("healthy submit failed: %v", err)
	}

	failing.Store(true)
	if _, err := admit(s, tinyRequest("BP", "SAC")); !errors.Is(err, ErrUnhealthy) {
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
	if _, err := admit(s, tinyRequest("BP", "SAC")); err != nil {
		t.Fatalf("submit after disk recovery failed: %v", err)
	}
	if h := s.HealthSnapshot(); h.Status == client.HealthUnhealthy {
		t.Fatal("daemon still unhealthy after a successful journal append")
	}
}

// TestJournalFailureRefusesBatchWhole: an exact batch whose second accept
// cannot be made durable is refused whole. No job of it is queued, so none
// runs: the one worker, FIFO, runs a job submitted after the refusal first
// and alone.
func TestJournalFailureRefusesBatchWhole(t *testing.T) {
	var syncs, failAt atomic.Int64
	var mu sync.Mutex
	var ran []string
	s := New(Config{Workers: 1, QueueCap: 16,
		JournalPath: filepath.Join(t.TempDir(), "journal.wal"),
		JournalSync: true,
		chaos: Chaos{
			JournalSync: func() error {
				if syncs.Add(1) == failAt.Load() {
					return errors.New("injected: disk on fire")
				}
				return nil
			},
			BeforeRun: func(id string) {
				mu.Lock()
				ran = append(ran, id)
				mu.Unlock()
			},
		}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	failAt.Store(syncs.Load() + 2)
	reqs := []client.JobRequest{tinyRequest("RN", "SAC"), tinyRequest("BP", "SAC"), tinyRequest("RN", "memory-side")}
	if _, _, err := s.SubmitBatch(reqs); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("batch with a failing second append returned %v, want ErrUnhealthy", err)
	}
	later, err := admit(s, tinyRequest("BP", "memory-side"))
	if err != nil {
		t.Fatalf("submit after the failed append: %v", err)
	}
	if fin := waitTerminal(t, s, later.ID, 60*time.Second); fin.State != client.StateDone {
		t.Fatalf("later job %s: %s", fin.State, fin.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != later.ID {
		t.Fatalf("the worker ran %v, want only the later job %s: a refused batch's job ran", ran, later.ID)
	}
}

// TestWorkerPanicContained: a panic on the execution path fails only its
// job. The worker survives, the failed flight is evicted, and the same cell
// retried later succeeds.
func TestWorkerPanicContained(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 1, QueueCap: 16,
		chaos: Chaos{BeforeRun: func(string) {
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

	st, err := admit(s, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID, 30*time.Second)
	if fin.State != client.StateFailed || !strings.Contains(fin.Error, "panic") {
		t.Fatalf("panicked job finished %q (%s), want failed with panic text", fin.State, fin.Error)
	}

	// Same cell again: the failed flight must not be memoized.
	st2, err := admit(s, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, st2.ID, 60*time.Second); fin.State != client.StateDone {
		t.Fatalf("retry after panic finished %s: %s", fin.State, fin.Error)
	}
	// And the worker survived to run a different cell too.
	st3, err := admit(s, tinyRequest("BP", "SAC"))
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
		chaos: Chaos{
			BeforeRun: func(string) {
				if runs.Add(1)%5 == 0 {
					panic("chaos: periodic worker kill")
				}
				time.Sleep(time.Millisecond)
			},
			// Every other sync is silently dropped (a lying disk): appends
			// must still succeed and the daemon must stay healthy.
			JournalSync: func() error { syncs.Add(1); return nil },
		}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.Start()

	benchmarks := []string{"RN", "BP", "SN"}
	orgs := []string{"SAC", "memory-side", "SM-side"}
	var accepted []string
	rejected := 0
	const jobs = 40
	for i := 0; i < jobs; i++ {
		req := tinyRequest(benchmarks[i%len(benchmarks)], orgs[(i/3)%len(orgs)])
		if i%7 == 0 {
			req.TimeoutMS = 1 // expires in queue or mid-run
		}
		jst, err := admit(s, req)
		if err != nil {
			// Backpressure or unhealthiness under chaos is legal — losing an
			// *accepted* job is not.
			rejected++
			continue
		}
		accepted = append(accepted, jst.ID)
	}
	if len(accepted) == 0 {
		t.Fatal("chaos refused every submission; nothing exercised")
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

// TestCorruptJournalSurfacesRecoveryErrors scribbles over a journal record,
// journals a request naming a config field this model does not have, one
// naming a fidelity rung it does not have, one whose config carries a retired
// field and one naming a queue priority, which sacd no longer has, and checks
// recovery proceeds, all five losses are counted, and healthz reports them.
func TestCorruptJournalSurfacesRecoveryErrors(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.wal")

	s1 := New(Config{Workers: 1, QueueCap: 16, JournalPath: jp})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, bm := range []string{"RN", "BP", "SN"} {
		jst, err := admit(s1, tinyRequest(bm, "SAC"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	// Abandon s1 (crash), journal the unknown-field request, one naming a
	// rung the ladder no longer has, one whose config carries a field the
	// config no longer has and one naming a priority (both written by a build
	// that still had them) beside its accepts, then corrupt the middle accept record on disk — after this
	// last Open, whose rewrite would drop a corrupt record.
	base, err := json.Marshal(tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	req := []byte(strings.Replace(string(base), `"SACOpts":{`, `"SACOpts":{"MinSamples":64,`, 1))
	retired := []byte(strings.Replace(string(base), "{", `{"fidelity":"sampled",`, 1))
	prioritized := []byte(strings.Replace(string(base), "{", `{"priority":"normal",`, 1))
	oldConfig := []byte(strings.Replace(string(base), `"DisableLSU":false,`, `"DisableLSU":false,"ReuseKernelDecisions":false,`, 1))
	if string(oldConfig) == string(base) {
		t.Fatalf("request %s has no SACOpts.DisableLSU to follow", base)
	}
	jnl, _, err := journal.Open(jp, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpAccept, ID: "unknown-field", Req: req}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpAccept, ID: "retired-rung", Req: retired}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpAccept, ID: "retired-field", Req: oldConfig}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpAccept, ID: "retired-priority", Req: prioritized}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("restored %d jobs, want %d (one record corrupted, one unknown field, one unknown fidelity, one retired config field, one priority)", n, len(ids)-1)
	}
	for _, id := range []string{"unknown-field", "retired-rung", "retired-field", "retired-priority"} {
		if _, ok := s2.Status(id); ok {
			t.Errorf("unrestorable job %s was restored", id)
		}
	}
	h := s2.HealthSnapshot()
	if h.RecoveryErrors != 5 {
		t.Fatalf("healthz recovery_errors = %d, want 5", h.RecoveryErrors)
	}
	if h.Status != client.HealthHealthy {
		t.Fatalf("healthz status = %s %v after dropping unrestorable records, want healthy", h.Status, h.Reasons)
	}
}

// TestCompactionKeepsAcceptOrder crosses the journal's compaction threshold
// at runtime by canceling queued journaled jobs, then recovers in a new
// Server: the jobs that stayed live must come back queued in the order they
// were accepted, whatever order the compaction found them in.
func TestCompactionKeepsAcceptOrder(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.wal")
	// Workers never started: every job stays queued until canceled.
	s1 := New(Config{Workers: 1, QueueCap: 256, JournalPath: jp})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for i := 0; i < 16; i++ {
		st, err := admit(s1, tinyRequest("RN", "SAC"))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, st.ID)
	}
	for i := 0; i < 40; i++ {
		st, err := admit(s1, tinyRequest("BP", "SAC"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s1.Cancel(st.ID); !ok {
			t.Fatalf("cancel of queued job %s reported it unknown", st.ID)
		}
	}
	if n := s1.m.jnlCompactions.Value(); n == 0 {
		t.Fatalf("no runtime compaction after %d journal records", s1.jnl.Records())
	}

	// Abandon s1 (crash) and recover.
	s2 := New(Config{Workers: 1, QueueCap: 256, JournalPath: jp})
	n, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var restored []string
	for _, j := range s2.queue {
		restored = append(restored, j.ID)
	}
	if n != len(kept) || strings.Join(restored, " ") != strings.Join(kept, " ") {
		t.Fatalf("restored %d jobs queued as\n%v\nwant accept order\n%v", n, restored, kept)
	}
}
