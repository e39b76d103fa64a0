package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	sac "repro"
	"repro/client"
)

// buildBins compiles saccoord, sacd, and sacsweep once per test binary.
var buildBins = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "saccoord-e2e")
	if err != nil {
		return nil, err
	}
	bins := make(map[string]string, 3)
	for _, name := range []string{"saccoord", "sacd", "sacsweep"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins, nil
})

// proc is one running fleet process (coordinator or worker) under test.
type proc struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
}

var servingLine = regexp.MustCompile(`serving on (http://\S+)`)

// startProc launches one binary on an ephemeral port and scrapes its bound
// address from the serving line.
func startProc(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	bins, err := buildBins()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bins[name], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stderr: &stderr}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("%s stderr:\n%s", name, p.stderr.String())
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
	case p.base = <-found:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never printed its serving line; stderr:\n%s", name, stderr.String())
	}
	return p
}

// sigkill is the hard-death path: no drain, no deregistration.
func (p *proc) sigkill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func newClient(base string) *client.Client {
	return client.New(base, client.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
}

// submit sends req to c as a batch of one and returns its status.
func submit(ctx context.Context, c *client.Client, req client.JobRequest) (client.JobStatus, error) {
	sts, err := c.SubmitBatch(ctx, []client.JobRequest{req})
	if err != nil {
		return client.JobStatus{}, err
	}
	return sts[0], nil
}

// waitFleet polls /v1/fleet until n workers are live.
func waitFleet(t *testing.T, cc *client.Client, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		fs, err := cc.Fleet(ctx)
		if err == nil && fs.Live == n {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("fleet never reached %d live workers (last: %+v, err=%v)", n, fs, err)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

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

// slowRequest is a cell heavy enough (~hundreds of ms) that a SIGKILL
// mid-wave reliably catches some of them in flight on the dying worker.
func slowRequest(benchmark string, org sac.Org, scale int) client.JobRequest {
	cfg := scaledDown(scale)
	return client.JobRequest{Benchmark: benchmark, Org: org.String(), Config: &cfg}
}

// TestFleetEndToEnd is the fleet acceptance scenario: a coordinator with two
// real sacd workers serves a sacsweep -remote byte-identical to a local
// sweep; a SIGKILLed worker mid-wave loses zero cells (they are stolen by
// the survivor); and the same grid from two concurrent clients simulates
// each unique cell exactly once fleet-wide.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e test in -short mode")
	}
	bins, err := buildBins()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 6*time.Minute)
	defer cancel()

	coord := startProc(t, "saccoord", "-heartbeat", "100ms", "-lapse", "400ms")
	wa := startProc(t, "sacd", "-coordinator", coord.base, "-worker-id", "worker-a",
		"-cache-dir", filepath.Join(t.TempDir(), "a"), "-workers", "2")
	startProc(t, "sacd", "-coordinator", coord.base, "-worker-id", "worker-b",
		"-cache-dir", filepath.Join(t.TempDir(), "b"), "-workers", "2")
	cc := newClient(coord.base)
	waitFleet(t, cc, 2)

	// Phase 1: byte identity. The remote sweep streams its grid through the
	// coordinator (placement, dedup, worker stores all in the path) and must
	// print exactly what the local, in-process sweep prints.
	sweep := func(extra ...string) []byte {
		args := append([]string{"-exp", "fig8", "-set", "RN,SN", "-json"}, extra...)
		cmd := exec.Command(bins["sacsweep"], args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("sacsweep %v: %v\nstderr:\n%s", args, err, errb.String())
		}
		return out.Bytes()
	}
	local := sweep()
	remote := sweep("-remote", coord.base)
	if !bytes.Equal(local, remote) {
		t.Fatalf("remote sweep output differs from local sweep\n local %d bytes, remote %d bytes", len(local), len(remote))
	}

	// Phase 2: kill a worker mid-wave. Submit slow cells, SIGKILL worker-a
	// while they run, and require every cell to finish — the coordinator
	// must steal the dead worker's cells to the survivor.
	wave := []client.JobRequest{
		slowRequest("RN", sac.MemorySide, 64),
		slowRequest("RN", sac.SAC, 64),
		slowRequest("SN", sac.MemorySide, 64),
		slowRequest("SN", sac.SAC, 64),
		slowRequest("GEMM", sac.MemorySide, 64),
		slowRequest("GEMM", sac.SAC, 64),
	}
	ids := make([]string, len(wave))
	for i, req := range wave {
		st, err := submit(ctx, cc, req)
		if err != nil {
			t.Fatalf("wave submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	wa.sigkill()
	for i, id := range ids {
		st, err := cc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wave job %d (%s/%s): %v", i, wave[i].Benchmark, wave[i].Org, err)
		}
		if st.State != client.StateDone {
			t.Fatalf("wave job %d (%s/%s) lost: state=%s err=%s", i, wave[i].Benchmark, wave[i].Org, st.State, st.Error)
		}
	}
	// The steals above ride connection errors, so the wave can finish before
	// the lapse watcher (3 heartbeats) evicts the corpse from the ring.
	fs, err := cc.Fleet(ctx)
	for deadline := time.Now().Add(5 * time.Second); err == nil && fs.Live != 1 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		fs, err = cc.Fleet(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
	if fs.Live != 1 {
		t.Fatalf("fleet live = %d after SIGKILL, want 1: %+v", fs.Live, fs)
	}
	for _, ws := range fs.Workers {
		if ws.ID == "worker-a" && ws.Health != "gone" {
			t.Fatalf("killed worker health = %q, want gone", ws.Health)
		}
	}
	t.Logf("post-kill fleet: steals=%d dedup=%d", fs.Steals, fs.DedupHits)

	// Phase 3: exactly-once fleet-wide. Two clients race the same fresh
	// grid; per unique cell exactly one execution (source sim) may happen —
	// every other submission joins it (dedup) or recalls it (memo).
	grid := []client.JobRequest{
		slowRequest("BP", sac.SAC, 96),
		slowRequest("BP", sac.MemorySide, 96),
		slowRequest("BFS", sac.SAC, 96),
	}
	type outcome struct {
		key, source string
		err         error
	}
	outcomes := make([]outcome, 2*len(grid))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl := newClient(coord.base)
		for i, req := range grid {
			wg.Add(1)
			go func(slot int, req client.JobRequest) {
				defer wg.Done()
				st, err := submit(ctx, cl, req)
				if err == nil {
					st, err = cl.Wait(ctx, st.ID)
				}
				if err == nil && st.State != client.StateDone {
					err = fmt.Errorf("state=%s err=%s", st.State, st.Error)
				}
				outcomes[slot] = outcome{key: st.Key, source: st.Source, err: err}
			}(c*len(grid)+i, req)
		}
	}
	wg.Wait()
	sims := make(map[string]int)
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("grid job %d: %v", i, o.err)
		}
		switch o.source {
		case client.SourceSim:
			sims[o.key]++
		case client.SourceDedup, client.SourceMemo, client.SourceStore:
		default:
			t.Fatalf("grid job %d has source %q", i, o.source)
		}
	}
	for key, n := range sims {
		if n > 1 {
			t.Fatalf("cell %.12s simulated %d times, want at most 1", key, n)
		}
	}
	if len(sims) == 0 {
		t.Fatal("no cell reported source sim; the grid was not fresh")
	}
}
