package eval

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// captureWorkers swaps the simulate stub for one that records the Workers
// value each cell was launched with (and still runs the real simulation).
func captureWorkers(r *Runner) *[]int {
	var mu sync.Mutex
	var got []int
	r.Simulate = func(cfg gpu.Config, spec workload.Spec, o gpu.RunOpts) (*stats.Run, error) {
		mu.Lock()
		got = append(got, o.Workers)
		mu.Unlock()
		return gpu.RunWith(cfg, spec, o)
	}
	return &got
}

// An explicit ChipWorkers setting must reach every simulation unchanged.
func TestChipWorkersExplicit(t *testing.T) {
	r := testRunner("RN")
	r.ChipWorkers = 3
	got := captureWorkers(r)
	if _, err := r.RunAll([]RunRequest{{Cfg: r.Base.WithOrg(llc.SAC), Spec: mustSpec(t, r, "RN")}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range *got {
		if w != 3 {
			t.Fatalf("cell launched with Workers=%d, want 3", w)
		}
	}
	if len(*got) == 0 {
		t.Fatal("simulate stub never ran")
	}
}

// ChipWorkers left at 0 — once "auto", a cells x chip-workers budget against
// GOMAXPROCS — reaches every simulation as 0, which gpu runs serially: at any
// cell parallelism a sweep's cores go to cells, never to chip workers.
func TestChipWorkersAutoBudget(t *testing.T) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		r := testRunner("RN")
		r.Parallelism = par
		got := captureWorkers(r)
		if _, err := r.RunAll([]RunRequest{{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: mustSpec(t, r, "RN")}}); err != nil {
			t.Fatal(err)
		}
		for _, w := range *got {
			if w != 0 {
				t.Fatalf("parallelism %d: cell launched with Workers=%d, want 0 (serial)", par, w)
			}
		}
	}
}

func mustSpec(t *testing.T, r *Runner, name string) workload.Spec {
	t.Helper()
	specs, err := r.specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("benchmark %q not in runner selection", name)
	return workload.Spec{}
}
