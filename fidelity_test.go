package sac_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	sac "repro"
)

// kernelOrgs extracts the per-kernel routing decisions of a SAC run — the
// cross-fidelity comparison reads the same Stats field at every rung.
func kernelOrgs(st *sac.Stats) []string {
	out := make([]string, len(st.Kernels))
	for i, k := range st.Kernels {
		out[i] = k.Org
	}
	return out
}

// TestCrossFidelityDecisions is the fidelity ladder's contract: the
// estimate rung must reproduce the exact engine's per-kernel SAC org
// decisions verbatim on all 16 Table-4 workloads, from an analytical
// profile where exact runs the real controller on the real traffic.
func TestCrossFidelityDecisions(t *testing.T) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	names := sac.BenchmarkNames()
	if len(names) != 16 {
		t.Fatalf("expected 16 Table-4 workloads, got %d", len(names))
	}

	type cell struct {
		exact, estimate []string
		err             error
	}
	cells := make([]cell, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := sac.Benchmark(name)
			if err != nil {
				cells[i].err = err
				return
			}
			for _, f := range []sac.Fidelity{sac.FidelityExact, sac.FidelityEstimate} {
				st, err := sac.Run(cfg, spec, sac.WithFidelity(f))
				if err != nil {
					cells[i].err = fmt.Errorf("%s at %s: %w", name, f, err)
					return
				}
				if f == sac.FidelityExact {
					cells[i].exact = kernelOrgs(st)
				} else {
					cells[i].estimate = kernelOrgs(st)
				}
			}
		}()
	}
	wg.Wait()

	matched := 0
	for i, name := range names {
		c := cells[i]
		if c.err != nil {
			t.Errorf("%s: %v", name, c.err)
			continue
		}
		if fmt.Sprint(c.estimate) != fmt.Sprint(c.exact) {
			t.Errorf("%s: estimate decisions %v != exact %v", name, c.estimate, c.exact)
			continue
		}
		matched++
	}
	t.Logf("cross-fidelity decisions matched on %d/%d workloads", matched, len(names))
}

// TestEstimateLatency is the estimate rung's speed contract: a full
// 16-workload SAC decision sweep must complete in well under a second (the
// rung's measured speed is bench/'s estimate_sweep workload; this bound only
// catches the rung degenerating into a simulation).
func TestEstimateLatency(t *testing.T) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	start := time.Now()
	for _, name := range sac.BenchmarkNames() {
		spec, err := sac.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sac.Run(cfg, spec, sac.WithFidelity(sac.FidelityEstimate)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	elapsed := time.Since(start)
	t.Logf("16-workload estimate sweep: %v", elapsed)
	if elapsed > 5*time.Second {
		t.Fatalf("estimate sweep took %v; the closed-form rung must stay far under simulation speeds", elapsed)
	}
}

// TestFidelityRoundTrip pins the provenance plumbing: exact runs stay
// unlabelled (and therefore byte-identical to pre-ladder output), fast runs
// carry their rung, and unknown rungs are rejected.
func TestFidelityRoundTrip(t *testing.T) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sac.Run(cfg, spec, sac.WithFidelity(sac.FidelityEstimate))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fidelity != "estimate" {
		t.Fatalf("estimate run Fidelity = %q", st.Fidelity)
	}
	exact, err := sac.Run(cfg, spec, sac.WithFidelity(sac.FidelityExact))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Fidelity != "" {
		t.Fatalf("exact run Fidelity = %q, want empty", exact.Fidelity)
	}
	b, err := json.Marshal(exact)
	if err != nil {
		t.Fatal(err)
	}
	if jsonHasField(b, "Fidelity") {
		t.Fatal("exact run JSON carries a Fidelity field; stored exact results must stay byte-identical")
	}
	if _, err := sac.Run(cfg, spec, sac.WithFidelity("cheap")); err == nil {
		t.Fatal("unknown fidelity accepted")
	}
}

func jsonHasField(b []byte, field string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}
