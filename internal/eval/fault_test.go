package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(
		"xchip:0.cw@2000-30000*0.5; dram:1.0@1000-40000*0.5;" +
			"llc:2.1@3000*0; noc:3.0@2000-2500*0")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultedParallelMatchesSerial is the determinism acceptance test: the
// same seeded fault plan swept serially and 8-way parallel must produce
// byte-identical statistics.
func TestFaultedParallelMatchesSerial(t *testing.T) {
	plan := testPlan(t)
	sweep := func(parallelism int) []byte {
		r := testRunner("RN", "BP")
		r.Parallelism = parallelism
		r.Faults = plan
		specs, err := r.specs()
		if err != nil {
			t.Fatal(err)
		}
		var reqs []RunRequest
		for _, spec := range specs {
			for _, org := range []llc.Org{llc.MemorySide, llc.SAC} {
				reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
			}
		}
		runs, err := r.RunAll(reqs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := sweep(1)
	parallel := sweep(8)
	if string(serial) != string(parallel) {
		t.Fatalf("faulted sweep not byte-identical across parallelism:\nserial   %s\nparallel %s",
			serial, parallel)
	}
	var runs []*stats.Run
	if err := json.Unmarshal(serial, &runs); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.FaultEvents == 0 {
			t.Fatalf("run %s/%s saw no fault events", r.Benchmark, r.Org)
		}
	}
}

// TestFaultedAndHealthyRunsDoNotCollide checks the memo keys separate plans.
func TestFaultedAndHealthyRunsDoNotCollide(t *testing.T) {
	r := testRunner("BP")
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Base.WithOrg(llc.MemorySide)
	runs, err := r.RunAll([]RunRequest{{Cfg: cfg, Spec: spec}, {Cfg: cfg, Spec: spec, Faults: testPlan(t)}})
	if err != nil {
		t.Fatal(err)
	}
	healthy, faulted := runs[0], runs[1]
	if r.Runs() != 2 {
		t.Fatalf("executed %d simulations, want 2 (healthy + faulted)", r.Runs())
	}
	if healthy.FaultEvents != 0 || faulted.FaultEvents == 0 {
		t.Fatalf("fault events healthy=%d faulted=%d", healthy.FaultEvents, faulted.FaultEvents)
	}
}

// TestSweepSurvivesPanickingCell injects a simulation that panics for one
// cell: the sweep must complete every other cell and report the failure as a
// structured CellError.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	r := testRunner("RN", "BP")
	r.Parallelism = 4
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		if spec.Name == "RN" && cfg.Org == llc.SAC {
			panic("injected cell failure")
		}
		return gpu.RunWith(cfg, spec, o)
	}
	specs, err := r.specs()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []RunRequest
	for _, spec := range specs {
		for _, org := range []llc.Org{llc.MemorySide, llc.SAC} {
			reqs = append(reqs, RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
		}
	}
	runs, err := r.RunAll(reqs)
	var cell *CellError
	if !errors.As(err, &cell) {
		t.Fatalf("RunAll error %v, want a CellError", err)
	}
	if cell.Benchmark != "RN" || cell.Org != llc.SAC.String() || cell.PanicVal == nil {
		t.Fatalf("wrong cell blamed: %+v", cell)
	}
	if !strings.Contains(cell.Error(), "injected cell failure") || len(cell.Stack) == 0 {
		t.Fatalf("panic context lost: %v", cell)
	}
	var completed, missing int
	for i, run := range runs {
		if run != nil {
			completed++
			continue
		}
		missing++
		if reqs[i].Spec.Name != "RN" || reqs[i].Cfg.Org != llc.SAC {
			t.Fatalf("healthy cell %s/%s missing from results", reqs[i].Spec.Name, reqs[i].Cfg.Org)
		}
	}
	if completed != len(reqs)-1 || missing != 1 {
		t.Fatalf("completed=%d missing=%d of %d cells", completed, missing, len(reqs))
	}
}

// TestSweepReportsFailingCellOnce deduplicates shared errors: many requests
// hitting the same failed memo entry produce one joined CellError.
func TestSweepReportsFailingCellOnce(t *testing.T) {
	r := testRunner("BP")
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		return nil, fmt.Errorf("boom")
	}
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Base.WithOrg(llc.MemorySide)
	reqs := []RunRequest{{Cfg: cfg, Spec: spec}, {Cfg: cfg, Spec: spec}, {Cfg: cfg, Spec: spec}}
	_, err = r.RunAll(reqs)
	if err == nil {
		t.Fatal("failing sweep returned nil error")
	}
	if n := strings.Count(err.Error(), "boom"); n != 1 {
		t.Fatalf("shared cell failure reported %d times, want once:\n%v", n, err)
	}
	var cell *CellError
	if !errors.As(err, &cell) || cell.PanicVal != nil || cell.Err == nil {
		t.Fatalf("error shape wrong: %v", err)
	}
}
