package sac_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	sac "repro"
)

// newestBaseline returns the record for bench from the newest BENCH_*.json
// that contains it. "Newest" is the file with the highest "_sequence" field
// (missing = 0, the seed revision), so each PR's recorded baselines
// supersede the seed without rewriting history: the guard always measures
// against the most recent accepted numbers.
func newestBaseline(t *testing.T, bench string) (string, json.RawMessage) {
	t.Helper()
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json baseline files in the repo root")
	}
	bestSeq := -1.0
	var bestFile string
	var bestRec json.RawMessage
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rec, ok := doc[bench]
		if !ok {
			continue
		}
		seq := 0.0
		if s, ok := doc["_sequence"]; ok {
			if err := json.Unmarshal(s, &seq); err != nil {
				t.Fatalf("%s: bad _sequence: %v", f, err)
			}
		}
		if seq > bestSeq {
			bestSeq, bestFile, bestRec = seq, f, rec
		}
	}
	if bestFile == "" {
		t.Fatalf("no BENCH_*.json file records %s", bench)
	}
	return bestFile, bestRec
}

// guardTolerance reads the relative tolerance for wall-clock guards. The
// intent is ≤1% regression, but wall-clock throughput on shared CI hardware
// jitters far beyond that, so the enforced default is 10%; quiet dedicated
// machines tighten it with REPRO_BENCH_TOLERANCE=0.01.
func guardTolerance(t *testing.T) float64 {
	t.Helper()
	s := os.Getenv("REPRO_BENCH_TOLERANCE")
	if s == "" {
		return 0.10
	}
	tol, err := strconv.ParseFloat(s, 64)
	if err != nil || tol <= 0 || tol >= 1 {
		t.Fatalf("REPRO_BENCH_TOLERANCE=%q: want a fraction in (0,1)", s)
	}
	return tol
}

// TestFig8AllocGuard is the allocation-regression gate for the cycle loop:
// with no observer attached, a full Fig 8 sweep must not allocate more than
// 1% over the newest recorded baseline. Allocation counts are deterministic,
// so unlike the wall-clock guards this one enforces the 1% directly. The run
// takes minutes (it simulates all 16 workloads across the org matrix), so it
// only executes when BENCH_GUARD=1 — `make benchguard` in CI, skipped in
// plain `go test`.
func TestFig8AllocGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 to run the allocation regression gate")
	}
	file, rec := newestBaseline(t, "BenchmarkFig8_Speedup")
	var fig8 struct {
		AllocsPerOp int64 `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(rec, &fig8); err != nil {
		t.Fatal(err)
	}
	base := fig8.AllocsPerOp
	if base <= 0 {
		t.Fatalf("%s has no allocs_per_op baseline for BenchmarkFig8_Speedup", file)
	}

	// A fresh runner per iteration so every op pays for its own simulations,
	// matching how the baselines were captured (first op of a cold run).
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := sac.NewRunner()
			if _, err := r.Fig8(); err != nil {
				b.Fatal(err)
			}
		}
	})
	limit := base + base/100
	t.Logf("fig8 allocs/op: got %d, baseline %d (%s), limit %d (+1%%)", res.AllocsPerOp(), base, file, limit)
	if res.AllocsPerOp() > limit {
		t.Fatalf("allocation regression: %d allocs/op exceeds baseline %d (%s) by more than 1%%",
			res.AllocsPerOp(), base, file)
	}
}

// TestSerialThroughputGuard gates the cycle loop's speed against the newest
// recorded sim_cycles_per_sec. Runs under BENCH_GUARD=1 alongside the
// allocation gate.
func TestSerialThroughputGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 to run the throughput regression gate")
	}
	file, rec := newestBaseline(t, "BenchmarkSimulatorThroughput")
	var base struct {
		SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	}
	if err := json.Unmarshal(rec, &base); err != nil {
		t.Fatal(err)
	}
	if base.SimCyclesPerSec <= 0 {
		t.Fatalf("%s has no sim_cycles_per_sec baseline for BenchmarkSimulatorThroughput", file)
	}
	tol := guardTolerance(t)

	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	spec, err := sac.Benchmark("SN")
	if err != nil {
		t.Fatal(err)
	}
	var cycles int64
	res := testing.Benchmark(func(b *testing.B) {
		cycles = 0
		for i := 0; i < b.N; i++ {
			run, err := sac.Run(cfg, spec)
			if err != nil {
				b.Fatal(err)
			}
			cycles += run.Cycles
		}
	})
	got := float64(cycles) / res.T.Seconds()
	floor := base.SimCyclesPerSec * (1 - tol)
	t.Logf("serial throughput: got %.0f sim-cycles/s, baseline %.0f (%s), floor %.0f (-%.0f%%)",
		got, base.SimCyclesPerSec, file, floor, tol*100)
	if got < floor {
		t.Fatalf("serial throughput regression: %.0f sim-cycles/s is more than %.0f%% below baseline %.0f (%s)",
			got, tol*100, base.SimCyclesPerSec, file)
	}
}

// TestRemoteSweepGuard gates the batch serving path's throughput: a warmed
// loopback daemon must answer a full 256-cell estimate sweep over jobs:batch
// at no less than tolerance below the newest recorded jobs_per_sec. Runs
// under BENCH_GUARD=1 alongside the other wall-clock gates.
func TestRemoteSweepGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 to run the remote sweep regression gate")
	}
	file, rec := newestBaseline(t, "BenchmarkRemoteEstimateSweep")
	var base struct {
		JobsPerSec float64 `json:"jobs_per_sec"`
	}
	if err := json.Unmarshal(rec, &base); err != nil {
		t.Fatal(err)
	}
	if base.JobsPerSec <= 0 {
		t.Fatalf("%s has no jobs_per_sec baseline for BenchmarkRemoteEstimateSweep", file)
	}
	tol := guardTolerance(t)

	universe := remoteUniverse()
	c := startBenchDaemon(t, universe)
	var jobs int
	res := testing.Benchmark(func(b *testing.B) {
		jobs = 0
		for i := 0; i < b.N; i++ {
			sweepBatch(b, c, universe)
			jobs += len(universe)
		}
	})
	got := float64(jobs) / res.T.Seconds()
	floor := base.JobsPerSec * (1 - tol)
	t.Logf("remote sweep: got %.0f jobs/s, baseline %.0f (%s), floor %.0f (-%.0f%%)",
		got, base.JobsPerSec, file, floor, tol*100)
	if got < floor {
		t.Fatalf("batch serving regression: %.0f jobs/s is more than %.0f%% below baseline %.0f (%s)",
			got, tol*100, base.JobsPerSec, file)
	}
}
