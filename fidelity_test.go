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

// pickedSM reports the workload-level SAC decision: whether any kernel ran
// SM-side.
func pickedSM(orgs []string) bool {
	for _, o := range orgs {
		if o == "SM-side" {
			return true
		}
	}
	return false
}

// TestCrossFidelityDecisions is the fidelity ladder's contract: the
// estimate and sampled rungs must reproduce the exact engine's SAC org
// decision on all 16 Table-4 workloads. The sampled rung simulates the real
// profiling window on the real controller, so it must match the exact
// per-kernel decision sequence verbatim; the estimate rung replays an
// analytical profile, so it is held to the workload-level decision (does
// SAC ever reconfigure to SM-side for this workload).
func TestCrossFidelityDecisions(t *testing.T) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	names := sac.BenchmarkNames()
	if len(names) != 16 {
		t.Fatalf("expected 16 Table-4 workloads, got %d", len(names))
	}

	type cell struct {
		exact, sampled, estimate []string
		err                      error
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
			for _, f := range []sac.Fidelity{sac.FidelityExact, sac.FidelitySampled, sac.FidelityEstimate} {
				st, err := sac.Run(cfg, spec, sac.WithFidelity(f))
				if err != nil {
					cells[i].err = fmt.Errorf("%s at %s: %w", name, f, err)
					return
				}
				switch f {
				case sac.FidelityExact:
					cells[i].exact = kernelOrgs(st)
				case sac.FidelitySampled:
					cells[i].sampled = kernelOrgs(st)
				case sac.FidelityEstimate:
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
		if fmt.Sprint(c.sampled) != fmt.Sprint(c.exact) {
			t.Errorf("%s: sampled decisions %v != exact %v", name, c.sampled, c.exact)
			continue
		}
		if got, want := pickedSM(c.estimate), pickedSM(c.exact); got != want {
			t.Errorf("%s: estimate workload decision SM-side=%v, exact SM-side=%v (estimate %v, exact %v)",
				name, got, want, c.estimate, c.exact)
			continue
		}
		matched++
	}
	t.Logf("cross-fidelity decisions matched on %d/%d workloads", matched, len(names))
}

// TestSampledDeterminism pins the sampled rung byte-identical run to run:
// the interval simulation inherits the exact engine's determinism and the
// extrapolation is pure arithmetic, so the marshalled result must not vary.
func TestSampledDeterminism(t *testing.T) {
	cfg := sac.ScaledConfig().WithOrg(sac.SAC)
	spec, err := sac.Benchmark("SN")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for run := 0; run < 2; run++ {
		st, err := sac.Run(cfg, spec, sac.WithFidelity(sac.FidelitySampled))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if st.Fidelity != string(sac.FidelitySampled) {
			t.Fatalf("run %d: Fidelity = %q, want %q", run, st.Fidelity, sac.FidelitySampled)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if string(b) != string(want) {
			t.Fatal("sampled output differs between two identical runs")
		}
	}
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
