package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/stats"
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json at the repo root to the
// definitions compiled into the benchmark (bench -print-spec regenerates it).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	built, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(built, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from bench -print-spec")
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setup bool
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("%s defined twice", d.Name)
		}
		seen[d.Name] = true
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is in the spec but not implemented", w.Name)
		}
	}
}

// checkMetrics requires got to hold exactly the metrics of defs, each with
// its unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(got), len(defs))
	}
	for _, d := range defs {
		mv, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s missing", d.Name)
		case mv.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, mv.Unit, d.Unit)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			t.Errorf("%s = %v", d.Name, mv.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and traced.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, err := runWorkload(w, runOpts{seed: 7, seconds: 1, trace: trace, size: sizeSmoke, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("trace=%v: %d of %d cells failed: %s", trace, rep.Failed, rep.Attempted, rep.FirstFailure)
				}
				checkMetrics(t, rep.EndToEnd, endToEnd)
				for _, d := range endToEnd {
					if rep.EndToEnd[d.Name].Value <= 0 {
						t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, rep.EndToEnd[d.Name].Value)
					}
				}
				if !trace {
					if rep.PerLayer != nil {
						t.Error("untraced run reported per-layer metrics")
					}
					continue
				}
				checkMetrics(t, rep.PerLayer, perLayer)
				if s := rep.PerLayer["harness.span_sum_share"].Value; math.Abs(s-1) > 0.05 {
					t.Errorf("self times sum to %.3f of the timed phase, want within 5%%", s)
				}
				var shares float64
				for _, l := range cpuShareLayers {
					shares += rep.PerLayer["cpu_share."+l].Value
				}
				if rep.Samples["profile_samples"] > 0 && math.Abs(shares-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v", shares)
				}
				raw, err := os.ReadFile(rep.TraceFile)
				if err != nil {
					t.Fatal(err)
				}
				var chrome struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("chrome trace does not load: %v (%d events)", err, len(chrome.TraceEvents))
				}
			}
		})
	}
}

// TestGoldenMismatchIsAFailure checks that a result that differs from its
// golden cell is described, not waved through.
func TestGoldenMismatchIsAFailure(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := exactSweepCells(sizeSmoke)[0]
	st, err := runCell(c)
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Sweep[sweepKey(c.spec.Name, c.cfg.Org)]
	if diff := cell.check(st); diff != "" {
		t.Fatalf("fresh result does not match golden: %s", diff)
	}
	doctored := *st
	doctored.Cycles++
	if cell.check(&doctored) == "" {
		t.Error("a result with one more cycle matched golden")
	}
	doctored = *st
	doctored.Kernels = append([]stats.KernelRec(nil), st.Kernels...)
	doctored.Kernels[0].Org = "nowhere"
	if cell.check(&doctored) == "" {
		t.Error("a result with another kernel org matched golden")
	}
}

// TestCompareRejectsDoctoredRun feeds -compare a run that breaks one bound.
func TestCompareRejectsDoctoredRun(t *testing.T) {
	base := &report{Workload: exactSweep, Correct: true, Attempted: 1, EndToEnd: map[string]metricValue{}}
	for _, d := range endToEnd {
		base.EndToEnd[d.Name] = metricValue{100, d.Unit}
	}
	write := func(name string, mutate func(*report)) string {
		r := *base
		r.EndToEnd = map[string]metricValue{}
		for k, v := range base.EndToEnd {
			r.EndToEnd[k] = v
		}
		mutate(&r)
		path := filepath.Join(t.TempDir(), name)
		if err := writeReports(path, []*report{&r, &r, &r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*report) {})
	if err := compareFiles(a, write("same.json", func(*report) {})); err != nil {
		t.Errorf("identical runs: %v", err)
	}
	// Every metric in turn: worse by 0.8 of its bound passes, by 1.2 fails.
	for _, d := range endToEnd {
		worse := func(share float64) func(*report) {
			v := 100 * (1 + share)
			if d.Better == higher {
				v = 100 * (1 - share)
			}
			return func(r *report) { r.EndToEnd[d.Name] = metricValue{v, d.Unit} }
		}
		if err := compareFiles(a, write("within.json", worse(0.8*d.Bound))); err != nil {
			t.Errorf("%s worse by 0.8 of its bound: %v", d.Name, err)
		}
		if err := compareFiles(a, write("beyond.json", worse(1.2*d.Bound))); err == nil {
			t.Errorf("%s worse by 1.2 of its bound passed", d.Name)
		}
	}
	failed := write("failed.json", func(r *report) { r.Correct, r.Failed = false, 1 })
	if err := compareFiles(a, failed); err == nil {
		t.Error("a run with a failed cell passed")
	}
}
