package sac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	sac "repro"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenObserved runs the deterministic golden workload — SN under SAC, the
// benchmark whose sharing pattern drives a profile → decide → reconfigure
// sequence — with an observer attached.
func goldenObserved(t *testing.T) *sac.Observer {
	t.Helper()
	spec, err := sac.Benchmark("SN")
	if err != nil {
		t.Fatal(err)
	}
	ob := sac.NewObserver(0)
	if _, err := sac.Run(fastConfig().WithOrg(sac.SAC), spec,
		sac.WithObserver(ob), sac.WithMetricsWindow(2000)); err != nil {
		t.Fatal(err)
	}
	return ob
}

// checkGolden compares got against the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (len got %d, want %d); rerun with -update if intended",
			name, len(got), len(want))
	}
}

// TestGoldenPrometheus pins the exact Prometheus text exposition of a short
// deterministic run: metric names, HELP/TYPE lines, label sets and final
// counter values.
func TestGoldenPrometheus(t *testing.T) {
	ob := goldenObserved(t)
	var b bytes.Buffer
	if err := ob.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.Bytes()
	for _, want := range []string{
		"# TYPE sacsim_cycles_total counter",
		"# TYPE sacsim_llc_hit_rate gauge",
		`sacsim_sac_mode{chip="0"}`,
		`sacsim_ring_link_utilization{chip="3",dir="ccw"}`,
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "metrics.prom", out)
}

// TestGoldenChromeTrace pins the Chrome trace_event JSON of the same run and
// validates the Perfetto-required envelope.
func TestGoldenChromeTrace(t *testing.T) {
	ob := goldenObserved(t)
	var b bytes.Buffer
	if err := ob.Trace.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace envelope incomplete: %+v", doc)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"process_name", "profile", "decide", "reconfigure", "sn"} {
		if !names[want] {
			t.Fatalf("trace missing %q events; have %v", want, names)
		}
	}
	checkGolden(t, "trace.json", b.Bytes())
}

// TestWithFaultsNilPlanIsPlainRun: a nil fault plan is exactly a plain Run,
// field for field, and a real plan is not.
func TestWithFaultsNilPlanIsPlainRun(t *testing.T) {
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig().WithOrg(sac.SAC)
	base, err := sac.Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := sac.Run(cfg, spec, sac.WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, viaNil) {
		t.Fatal("WithFaults(nil) diverged from Run")
	}

	plan, err := sac.ParseFaultPlan("dram:1.0@3000-9000*0.5")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := sac.Run(cfg, spec, sac.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, faulted) {
		t.Fatal("a DRAM fault plan left the run unchanged")
	}
}

// TestObserverDoesNotPerturbSimulation: with an observer attached, every
// simulated outcome must be identical to the unobserved run. Only the
// Skipped accounting may differ (metrics windows bound idle fast-forwards,
// so boundary cycles are stepped instead of skipped).
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	spec, err := sac.Benchmark("SN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig().WithOrg(sac.SAC)
	plain, err := sac.Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := sac.Run(cfg, spec, sac.WithObserver(sac.NewObserver(1000)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := *plain, *observed
	a.Skipped, b.Skipped = 0, 0
	if !reflect.DeepEqual(&a, &b) {
		t.Fatalf("observer changed simulation outcomes:\nplain    %+v\nobserved %+v", a, b)
	}
}

// TestRunWithCanceledContext: a canceled context fails the run with a
// *CellError wrapping context.Canceled.
func TestRunWithCanceledContext(t *testing.T) {
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := sac.Run(fastConfig(), spec, sac.WithContext(ctx))
	if st != nil {
		t.Fatal("canceled run returned stats")
	}
	var cell *sac.CellError
	if !errors.As(err, &cell) {
		t.Fatalf("error %v (%T), want *CellError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if cell.Benchmark != "RN" {
		t.Fatalf("CellError names %q, want RN", cell.Benchmark)
	}
}

// TestRunnerContextCancelsSweep: a canceled Runner context fails every cell
// with the context error instead of simulating.
func TestRunnerContextCancelsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := sac.NewRunner()
	r.Base = fastConfig()
	r.Ctx = ctx
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunAll([]sac.RunRequest{{Cfg: r.Base.WithOrg(sac.MemorySide), Spec: spec}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error %v, want context.Canceled", err)
	}
}

// TestMetricsScrapeDuringSweep scrapes the live metrics endpoint while a
// parallel sweep executes — the writer/scraper interleaving is what the race
// detector checks in `make race`.
func TestMetricsScrapeDuringSweep(t *testing.T) {
	r := sac.NewRunner()
	r.Base = fastConfig()
	r.Benchmarks = []string{"RN", "BP"}
	r.Parallelism = 2
	r.Obs = sac.NewObserver(0)
	var mu sync.Mutex
	var cells []sac.CellResult
	r.OnCellDone = func(c sac.CellResult) {
		mu.Lock()
		cells = append(cells, c)
		mu.Unlock()
	}
	handler := sac.MetricsHandler(r.Obs.Metrics)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Errorf("scrape status %d", rec.Code)
				return
			}
		}
	}()

	var reqs []sac.RunRequest
	for _, name := range r.Benchmarks {
		spec, err := sac.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, org := range []sac.Org{sac.MemorySide, sac.SAC} {
			reqs = append(reqs, sac.RunRequest{Cfg: r.Base.WithOrg(org), Spec: spec})
		}
	}
	runs, err := r.RunAll(reqs)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run == nil {
			t.Fatalf("cell %d missing", i)
		}
	}
	if len(cells) != len(reqs) {
		t.Fatalf("OnCellDone fired %d times, want %d", len(cells), len(reqs))
	}

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "sacsweep_cells_completed_total 4") {
		t.Fatalf("sweep metrics wrong after completion:\n%s", body)
	}
	if !strings.Contains(body, "sacsweep_cells_inflight 0") {
		t.Fatalf("inflight gauge not drained:\n%s", body)
	}
}
