package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	sac "repro"
	"repro/client"
)

// buildDaemon compiles the sacd binary once per test binary invocation.
var buildDaemon = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "sacd-e2e")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "sacd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/sacd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// daemon is one running sacd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
}

var servingLine = regexp.MustCompile(`serving on (http://\S+)`)

// startDaemon launches sacd on an ephemeral port and waits for its serving
// line (which carries the bound address).
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	bin, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &stderr}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon stderr:\n%s", d.stderr.String())
		}
	})

	lines := bufio.NewScanner(stdout)
	found := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if m := servingLine.FindStringSubmatch(lines.Text()); m != nil {
				select {
				case found <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-found:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never printed its serving line; stderr:\n%s", stderr.String())
	}
	return d
}

// sigterm drains the daemon and asserts a clean exit.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited dirty after SIGTERM: %v\nstderr:\n%s", err, d.stderr.String())
		}
	case <-time.After(2 * time.Minute):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not drain within 2 minutes\nstderr:\n%s", d.stderr.String())
	}
}

// tinyConfig mirrors the eval test shrink so e2e simulations run in
// milliseconds.
func tinyConfig() sac.Config { return scaledDown(512) }

// slowConfig is ~8x more work than tinyConfig: slow enough that a SIGTERM
// right after submission reliably catches jobs still queued.
func slowConfig() sac.Config { return scaledDown(64) }

func scaledDown(scale int) sac.Config {
	cfg := sac.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = scale
	cfg.SACOpts.WindowCycles = 1500
	return cfg
}

func tinyRequest(benchmark string, org sac.Org) client.JobRequest {
	cfg := tinyConfig()
	return client.JobRequest{Benchmark: benchmark, Org: org.String(), Config: &cfg}
}

func slowRequest(benchmark string, org sac.Org) client.JobRequest {
	cfg := slowConfig()
	return client.JobRequest{Benchmark: benchmark, Org: org.String(), Config: &cfg}
}

func newClient(d *daemon) *client.Client {
	return client.New(d.base, client.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
}

// submit sends req to c as a batch of one and returns its status.
func submit(ctx context.Context, c *client.Client, req client.JobRequest) (client.JobStatus, error) {
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{req})
	if err != nil {
		return client.JobStatus{}, err
	}
	return sts[0], nil
}

// TestDaemonEndToEnd is the acceptance scenario: two concurrent clients
// submitting the same cell share one simulation; the result is byte-
// identical to an in-process sac.Run; a SIGTERM drain drops no accepted
// job; and a restarted daemon answers from the persistent store.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e daemon test in -short mode")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	d1 := startDaemon(t, "-cache-dir", cacheDir, "-workers", "2")
	c1 := newClient(d1)

	// Phase 1: concurrent dedup. Two clients race the same cell; exactly
	// one simulation happens and both see the identical payload.
	var (
		wg      sync.WaitGroup
		sources [2]string
		bodies  [2][]byte
		errs    [2]error
	)
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(d1)
			st, err := submit(ctx, c, tinyRequest("BP", sac.SAC))
			if err == nil {
				st, err = c.Wait(ctx, st.ID)
			}
			if err != nil {
				errs[i] = err
				return
			}
			sources[i] = st.Source
			if _, err := st.Outcome(); err != nil {
				errs[i] = err
				return
			}
			bodies[i] = st.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	sims := 0
	for i, src := range sources {
		switch src {
		case client.SourceSim:
			sims++
		case client.SourceDedup, client.SourceMemo:
		default:
			t.Fatalf("client %d job has source %q", i, src)
		}
	}
	if sims != 1 {
		t.Fatalf("sources %v: want exactly one sim, rest dedup/memo", sources)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("concurrent clients saw different payloads for the same cell")
	}

	// Phase 2: byte identity with the in-process API. The result bytes the
	// daemon's status carries for a cell must be exactly what sac.Run
	// produces locally, marshaled.
	spec, err := sac.Benchmark("BP")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sac.Run(tinyConfig().WithOrg(sac.SAC), spec)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)
	if !bytes.Equal(localJSON, bodies[0]) {
		t.Fatalf("daemon result differs from in-process sac.Run:\n daemon: %.200s\n  local: %.200s",
			bodies[0], localJSON)
	}

	// Phase 3: accept a burst, SIGTERM mid-stream, and verify nothing
	// accepted is lost: every job either finished into the store before the
	// drain or was requeued to disk and restored by the next daemon.
	burst := []client.JobRequest{
		slowRequest("RN", sac.MemorySide),
		slowRequest("RN", sac.SMSide),
		slowRequest("SN", sac.MemorySide),
		slowRequest("SN", sac.SAC),
		slowRequest("GEMM", sac.MemorySide),
	}
	ids := make([]string, len(burst))
	for i, req := range burst {
		st, err := submit(ctx, c1, req)
		if err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	d1.sigterm(t)

	// Phase 4: restart over the same store. The BP/SAC cell must come back
	// source "store" (no simulation), byte-identical to the original.
	d2 := startDaemon(t, "-cache-dir", cacheDir, "-workers", "2")
	c2 := newClient(d2)
	st, err := submit(ctx, c2, tinyRequest("BP", sac.SAC))
	if err != nil {
		t.Fatal(err)
	}
	st, err = c2.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != client.SourceStore {
		t.Fatalf("restarted daemon served BP/SAC with source %q, want store", st.Source)
	}
	if !bytes.Equal(st.Result, localJSON) {
		t.Fatal("result across daemon restart differs from in-process sac.Run")
	}
	// The store is the one owner of its traffic series on /metrics.
	resp, err := http.Get(d2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hits", "misses", "evictions", "put_errors", "corrupt"} {
		if !bytes.Contains(metrics, []byte("\nsacd_store_"+name+"_total ")) {
			t.Errorf("/metrics lacks sacd_store_%s_total", name)
		}
	}
	if bytes.Contains(metrics, []byte("\nsacd_store_hits_total 0\n")) {
		t.Error("/metrics counts no store hit after one was served")
	}
	if bytes.Contains(metrics, []byte("sacd_cache_")) {
		t.Error("/metrics still counts store traffic a second time as sacd_cache_*")
	}

	// Phase 5: account for every burst job. Requeued jobs were restored
	// under their original IDs and must run to completion; jobs that
	// finished before the drain are in the store, so resubmitting their
	// cell must not simulate.
	restored, completed := 0, 0
	for i, id := range ids {
		if _, err := c2.Status(ctx, id); err == nil {
			restored++
			fin, werr := c2.Wait(ctx, id)
			if werr != nil {
				t.Fatalf("restored job %s: %v", id, werr)
			}
			if fin.State != client.StateDone {
				t.Fatalf("restored job %s finished %s: %s", id, fin.State, fin.Error)
			}
			continue
		}
		// Unknown to the new daemon: it must have completed pre-drain.
		fin, err := submit(ctx, c2, burst[i])
		if err != nil {
			t.Fatalf("resubmitting burst job %d: %v", i, err)
		}
		fin, err = c2.Wait(ctx, fin.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Source == client.SourceSim {
			t.Fatalf("burst job %d (%s) was dropped: neither requeued nor in the store", i, burst[i].Benchmark)
		}
		completed++
	}
	t.Logf("burst of %d: %d completed before drain, %d requeued and restored", len(ids), completed, restored)
	if restored == 0 {
		t.Error("SIGTERM never caught a queued job; the requeue path went unexercised (burst too fast?)")
	}

	// The restored daemon's health must be clean once everything settles.
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != client.HealthHealthy || h.StoreObjects == 0 {
		t.Fatalf("health after restart: %+v", h)
	}
	if h.JournalRecords == 0 {
		t.Fatalf("daemon is running unjournaled: %+v", h)
	}
	d2.sigterm(t)
}

// TestCrashRecoveryE2E is the real thing: SIGKILL a daemon with accepted
// jobs on the books and verify the next daemon process restores every
// accepted-but-unfinished job from the journal and runs it to completion.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e crash test in -short mode")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// One worker and slow cells so a burst reliably leaves jobs queued and
	// mid-run at the kill.
	d1 := startDaemon(t, "-cache-dir", cacheDir, "-workers", "1")
	c1 := newClient(d1)
	burst := []client.JobRequest{
		slowRequest("RN", sac.MemorySide),
		slowRequest("RN", sac.SMSide),
		slowRequest("SN", sac.MemorySide),
		slowRequest("SN", sac.SAC),
	}
	ids := make([]string, len(burst))
	for i, req := range burst {
		st, err := submit(ctx, c1, req)
		if err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// kill -9: no drain, no shutdown mark, no requeue file — only the
	// journal knows what was accepted.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	d2 := startDaemon(t, "-cache-dir", cacheDir, "-workers", "2")
	c2 := newClient(d2)
	lost := 0
	for _, id := range ids {
		fin, err := c2.Wait(ctx, id)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == 404 {
				// Unknown job after a crash = the accept was lost. A job
				// that finished entirely before the kill is journaled done
				// and legitimately absent — tolerate only those, by
				// checking the store answers for its cell.
				lost++
				continue
			}
			t.Fatalf("waiting on restored job %s: %v", id, err)
		}
		if fin.State != client.StateDone {
			t.Fatalf("restored job %s finished %s: %s", id, fin.State, fin.Error)
		}
	}
	if lost > 0 {
		// Every absent job must be answered by the store (it completed
		// pre-kill); otherwise an acknowledged accept evaporated.
		for i, id := range ids {
			if _, err := c2.Status(ctx, id); err == nil {
				continue
			}
			st, err := submit(ctx, c2, burst[i])
			if err != nil {
				t.Fatal(err)
			}
			if st, err = c2.Wait(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
			if st.Source == client.SourceSim {
				t.Fatalf("job %s was accepted, then lost by the crash", id)
			}
		}
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.RecoveryErrors != 0 {
		t.Fatalf("crash recovery reported %d recovery errors: %+v", h.RecoveryErrors, h)
	}
	d2.sigterm(t)
}
