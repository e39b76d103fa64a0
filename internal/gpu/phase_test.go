package gpu

import (
	"fmt"
	"testing"

	"repro/internal/llc"
	"repro/internal/workload"
)

// fusedBFS is BFS with its two kernels fused per warp, one kernel per
// repeat: each warp of invocation r runs its stream of BFS kernel order[0]
// of repeat r and then that of kernel order[1]. The phase change that BFS
// marks with a kernel boundary falls inside one kernel, where SAC's
// once-per-kernel decision cannot see it. It implements Workload directly,
// streams and all.
type fusedBFS struct {
	spec  workload.Spec
	order [2]int
}

func newFusedBFS(t *testing.T, order [2]int) fusedBFS {
	t.Helper()
	spec, err := workload.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	return fusedBFS{spec: spec, order: order}
}

func (f fusedBFS) SourceName() string {
	return fmt.Sprintf("BFS(K%d→K%d)", f.order[0]+1, f.order[1]+1)
}
func (f fusedBFS) KernelCount() int        { return f.spec.KernelCount() / len(f.spec.Kernels) }
func (f fusedBFS) KernelName(i int) string { return fmt.Sprintf("fused%d", i) }

func (f fusedBFS) Stream(m workload.Machine, ki, chip, sm, warp int) workload.AccessStream {
	base := ki * len(f.spec.Kernels)
	s := &concatStream{}
	for _, k := range f.order {
		part := f.spec.Stream(m, base+k, chip, sm, warp)
		s.parts = append(s.parts, part)
		s.n += part.Len()
	}
	return s
}

// concatStream plays its parts one after the other.
type concatStream struct {
	parts []workload.AccessStream
	n     int64
}

func (c *concatStream) Next() (workload.Access, bool) {
	for len(c.parts) > 0 {
		if a, ok := c.parts[0].Next(); ok {
			return a, true
		}
		c.parts = c.parts[1:]
	}
	return workload.Access{}, false
}

func (c *concatStream) Len() int64 { return c.n }

// TestReprofileEveryEarnsItsRow is periodic re-profiling's one win: on BFS
// fused K2→K1, per-kernel SAC decides SM-side from K2's opening window and
// keeps it through K1, losing to memory-side; re-profiling every 200K cycles
// sees K1 and switches back, beating both. (K1→K2 and the 50K period are in
// EXPERIMENTS.md's ablations.)
func TestReprofileEveryEarnsItsRow(t *testing.T) {
	w := newFusedBFS(t, [2]int{1, 0})
	run := func(org llc.Org, every int64) int64 {
		cfg := ScaledConfig().WithOrg(org)
		cfg.SACOpts.ReprofileEvery = every
		st, err := RunWith(cfg, w, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	mem, sac, reprofiled := run(llc.MemorySide, 0), run(llc.SAC, 0), run(llc.SAC, 200_000)
	if reprofiled >= sac || reprofiled >= mem {
		t.Fatalf("%s: SAC re-profiling every 200K cycles ran %d cycles, per-kernel SAC %d, memory-side %d",
			w.SourceName(), reprofiled, sac, mem)
	}
}
