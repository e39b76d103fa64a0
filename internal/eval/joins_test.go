package eval

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// failingRunner returns a parallel Runner whose simulate stub fails (or
// panics) for the named benchmarks and succeeds for everything else.
func failingRunner(t *testing.T, fail map[string]string) *Runner {
	t.Helper()
	r := testRunner()
	r.Parallelism = 4
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		switch fail[spec.Name] {
		case "error":
			return nil, fmt.Errorf("synthetic failure in %s", spec.Name)
		case "panic":
			panic("synthetic panic in " + spec.Name)
		}
		return &stats.Run{Benchmark: spec.Name, Org: cfg.Org.String(), Cycles: 1000, MemOps: 100}, nil
	}
	return r
}

func joinReqs(t *testing.T, r *Runner) []RunRequest {
	t.Helper()
	var reqs []RunRequest
	for _, name := range []string{"RN", "BP", "SN", "GEMM"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, org := range []llc.Org{llc.MemorySide, llc.SMSide} {
			reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
		}
		// Duplicate every memory-side cell: joins must not duplicate errors.
		reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec})
	}
	return reqs
}

// TestRunAllErrorOrderDeterministic pins the CellError aggregation contract:
// RunAll joins one error per distinct failed cell, in request order,
// regardless of the (parallel, nondeterministic) completion order.
func TestRunAllErrorOrderDeterministic(t *testing.T) {
	fail := map[string]string{"BP": "error", "SN": "panic", "GEMM": "error"}
	var want []string
	for trial := 0; trial < 6; trial++ {
		r := failingRunner(t, fail)
		reqs := joinReqs(t, r)
		runs, err := r.RunAll(reqs)
		if err == nil {
			t.Fatal("RunAll returned nil error with failing cells")
		}
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok {
			t.Fatalf("RunAll error is not an errors.Join result: %T", err)
		}
		// One error per distinct failed cell: BP, SN, GEMM under two orgs
		// each (duplicates collapse onto the same CellError). The aggregation
		// order is the cells' first-encounter order in the request slice, not
		// the (nondeterministic) parallel completion order.
		errs := joined.Unwrap()
		if len(errs) != 6 {
			t.Fatalf("joined %d errors, want 6: %v", len(errs), err)
		}
		got := make([]string, len(errs))
		for i, e := range errs {
			var cell *CellError
			if !errors.As(e, &cell) {
				t.Fatalf("joined error is not a *CellError: %T (%v)", e, e)
			}
			got[i] = cell.Benchmark + "/" + cell.Org
		}
		// Expected order derives from the request slice itself.
		var expect []string
		seen := map[string]bool{}
		for _, q := range reqs {
			id := q.Spec.Name + "/" + q.Cfg.Org.String()
			if fail[q.Spec.Name] != "" && !seen[id] {
				seen[id] = true
				expect = append(expect, id)
			}
		}
		if len(got) != len(expect) {
			t.Fatalf("trial %d joined %d cells, want %d", trial, len(got), len(expect))
		}
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("trial %d aggregation order diverged at %d:\n got: %v\nwant: %v", trial, i, got, expect)
			}
		}
		if want == nil {
			want = got
		}
		// Successful cells still fill their slots; failed cells are holes.
		for i, req := range reqs {
			failed := fail[req.Spec.Name] != ""
			if failed && runs[i] != nil {
				t.Fatalf("req %d (%s) failed but has a result", i, req.Spec.Name)
			}
			if !failed && runs[i] == nil {
				t.Fatalf("req %d (%s) succeeded but slot is nil", i, req.Spec.Name)
			}
		}
	}
}

// TestOnCellDoneExactlyOncePerCell hammers a parallel RunAll with duplicate
// requests and concurrent callers. OnCellDone fires once per execution: a
// successful cell executes, and fires, exactly once; a failed cell is evicted,
// so a concurrent or later request may execute it again, and each execution
// fires once. A join or a recall never fires. Run under -race this also
// checks callback publication.
func TestOnCellDoneExactlyOncePerCell(t *testing.T) {
	fail := map[string]string{"BP": "error", "SN": "panic"}
	r := failingRunner(t, fail)
	var mu sync.Mutex
	execs, fired := make(map[string]int), make(map[string]int)
	sim := r.Simulate
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		mu.Lock()
		execs[spec.Name+"/"+cfg.Org.String()]++
		mu.Unlock()
		return sim(cfg, spec, o)
	}
	r.OnCellDone = func(c CellResult) {
		mu.Lock()
		fired[c.Benchmark+"/"+c.Org]++
		mu.Unlock()
	}

	reqs := joinReqs(t, r)
	const callers = 4
	var wg sync.WaitGroup
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = r.RunAll(reqs)
		}()
	}
	wg.Wait()
	check := func(round string, maxFailedExecs int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, q := range reqs {
			cell := q.Spec.Name + "/" + q.Cfg.Org.String()
			n, e := fired[cell], execs[cell]
			switch {
			case fail[q.Spec.Name] == "" && (n != 1 || e != 1):
				t.Errorf("%s: %s fired %d times over %d executions, want exactly 1 of each", round, cell, n, e)
			case fail[q.Spec.Name] != "" && (n != e || e < 1 || e > maxFailedExecs):
				t.Errorf("%s: failed %s fired %d times over %d executions, want one per execution (1..%d)",
					round, cell, n, e, maxFailedExecs)
			}
		}
	}
	check("concurrent callers", callers)
	// A later call recalls every success and retries every failure.
	mu.Lock()
	before := make(map[string]int, len(execs))
	for cell, e := range execs {
		before[cell] = e
	}
	mu.Unlock()
	_, _ = r.RunAll(reqs)
	check("later call", callers+1)
	mu.Lock()
	defer mu.Unlock()
	for _, q := range reqs {
		if cell := q.Spec.Name + "/" + q.Cfg.Org.String(); fail[q.Spec.Name] != "" && execs[cell] != before[cell]+1 {
			t.Errorf("failed %s executed %d times in the later call, want 1 retry", cell, execs[cell]-before[cell])
		}
	}
}

// TestJoinersHoldNoSlot: Parallelism bounds executions, not waiters. At
// Parallelism 1 a run-set is still executing while four times as many
// requests for the same cells join or recall it; none of them may hold the
// one slot the executions need.
func TestJoinersHoldNoSlot(t *testing.T) {
	r := testRunner()
	r.Parallelism = 1
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		time.Sleep(2 * time.Millisecond)
		return &stats.Run{Benchmark: spec.Name, Org: cfg.Org.String(), Cycles: 1000, MemOps: 100}, nil
	}
	var reqs []RunRequest
	for _, name := range []string{"RN", "BP", "SN", "GEMM"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, org := range []llc.Org{llc.MemorySide, llc.SMSide} {
			reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		run := func(reqs []RunRequest) {
			defer wg.Done()
			if _, err := r.RunAll(reqs); err != nil {
				t.Error(err)
			}
		}
		wg.Add(1)
		go run(reqs)
		for k := 0; k < 4; k++ {
			for i := range reqs {
				wg.Add(1)
				go run(reqs[i : i+1])
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("joiners starved the execution slot: requests still waiting after 30 s")
	}
	if got := r.Runs(); got != len(reqs) {
		t.Fatalf("executed %d cells, want %d (one per distinct cell)", got, len(reqs))
	}
}

// TestOnCellDoneHoldsTheSlot: OnCellDone runs before the cell gives its
// execution slot back, so at Parallelism 1 no other cell simulates while a
// cell is reported. bench's pass meter laps on OnCellDone and times the host
// there; a simulation running beside it would pass for a slow host.
func TestOnCellDoneHoldsTheSlot(t *testing.T) {
	r := failingRunner(t, map[string]string{"SN": "panic"})
	r.Parallelism = 1
	var started atomic.Int32
	sim := r.Simulate
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		started.Add(1)
		return sim(cfg, spec, o)
	}
	r.OnCellDone = func(c CellResult) {
		before := started.Load()
		time.Sleep(2 * time.Millisecond)
		if n := started.Load() - before; n != 0 {
			t.Errorf("%d cells started simulating while %s/%s was reported", n, c.Benchmark, c.Org)
		}
	}
	_, _ = r.RunAll(joinReqs(t, r))
}
