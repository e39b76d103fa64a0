package backend

import (
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// kernelOrgs is a run's per-kernel routing sequence, the field both rungs
// record the same way.
func kernelOrgs(run *stats.Run) []string {
	orgs := make([]string, len(run.Kernels))
	for i, k := range run.Kernels {
		orgs[i] = k.Org
	}
	return orgs
}

// TestCalibrateEstimateWarpSteps sweeps the per-warp replay depth and
// reports, for each candidate, how many Table-4 workloads the estimate
// rung's SAC decision agrees with the cycle-exact engine on. Diagnostic
// sweep used to pick defaultEstimateWarpSteps; the cross-fidelity contract
// itself is pinned by TestCrossFidelityDecisions at the repo root, so this
// ~30s sweep only runs when re-calibrating (SAC_CALIBRATE=1).
func TestCalibrateEstimateWarpSteps(t *testing.T) {
	if os.Getenv("SAC_CALIBRATE") == "" {
		t.Skip("calibration sweep; set SAC_CALIBRATE=1 to run")
	}
	cfg := gpu.ScaledConfig()
	cfg = cfg.WithOrg(llc.SAC)
	names := workload.Names()

	exact := make(map[string]bool, len(names))
	for _, name := range names {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := gpu.RunWith(cfg, spec, gpu.RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact[name] = slices.Contains(kernelOrgs(run), llc.ModeSMSide.String())
		t.Logf("exact %-5s pickSM=%v", name, exact[name])
	}

	saved := estimateWarpSteps
	defer func() { estimateWarpSteps = saved }()
	for _, cap := range []int64{0, 64, 32, 16, 8, 4} {
		estimateWarpSteps = cap
		agree := 0
		var wrong []string
		for _, name := range names {
			spec, _ := workload.ByName(name)
			run, err := runEstimate(cfg, spec, gpu.RunOpts{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if slices.Contains(kernelOrgs(run), llc.ModeSMSide.String()) == exact[name] {
				agree++
			} else {
				wrong = append(wrong, name)
			}
		}
		t.Logf("warpSteps=%-3d agree=%d/%d wrong=%v", cap, agree, len(names), wrong)
	}
}

// heldOutLimit is the most counted disagreements TestEstimateHeldOutDecisions
// accepts: what the rung scores today.
const heldOutLimit = 12

// TestEstimateHeldOutDecisions scores the estimate rung's SAC decisions off
// the scale its warp depth was calibrated at: the 64 SAC cells of the
// estimate_sweep universe (16 Table-4 specs × WorkloadScale 256–640, where
// calibration ran at ScaledConfig's 8). A cell whose per-kernel org sequence
// differs from the exact engine's counts only when the choice mattered: when
// exact memory-side and SM-side runs differ in IPC by more than θ. The test
// fails above heldOutLimit counted cells.
func TestEstimateHeldOutDecisions(t *testing.T) {
	var cells []universeCell
	for _, c := range estimateUniverse() {
		if c.cfg.Org == llc.SAC {
			cells = append(cells, c)
		}
	}
	type verdict struct {
		exact, estimate []string
		margin          float64 // exact SM-side IPC over memory-side's, minus 1
		err             error
	}
	ipc := func(cfg gpu.Config, spec workload.Spec) (float64, error) {
		run, err := gpu.RunWith(cfg, spec, gpu.RunOpts{})
		if err != nil {
			return 0, err
		}
		return float64(run.MemOps) / float64(run.Cycles), nil
	}
	vs := make([]verdict, len(cells))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v := &vs[i]
			exact, err := gpu.RunWith(c.cfg, c.spec, gpu.RunOpts{})
			if err != nil {
				v.err = err
				return
			}
			est, err := runEstimate(c.cfg, c.spec, gpu.RunOpts{})
			if err != nil {
				v.err = err
				return
			}
			v.exact, v.estimate = kernelOrgs(exact), kernelOrgs(est)
			if slices.Equal(v.exact, v.estimate) {
				return
			}
			mem, err := ipc(c.cfg.WithOrg(llc.MemorySide), c.spec)
			if err != nil {
				v.err = err
				return
			}
			smSide, err := ipc(c.cfg.WithOrg(llc.SMSide), c.spec)
			if err != nil {
				v.err = err
				return
			}
			v.margin = smSide/mem - 1
		}()
	}
	wg.Wait()

	theta := gpu.ScaledConfig().SACOpts.WithDefaults().Theta
	agree, counted := 0, 0
	for i, c := range cells {
		v := vs[i]
		switch {
		case v.err != nil:
			t.Fatalf("%s: %v", c.name, v.err)
		case slices.Equal(v.exact, v.estimate):
			agree++
		case math.Abs(v.margin) > theta:
			counted++
			t.Logf("%s: estimate %v, exact %v, SM-side IPC margin %+.3f (counted)", c.name, v.estimate, v.exact, v.margin)
		default:
			t.Logf("%s: estimate %v, exact %v, SM-side IPC margin %+.3f (within θ)", c.name, v.estimate, v.exact, v.margin)
		}
	}
	t.Logf("per-kernel decisions agree on %d/%d cells; %d disagreements exceed θ=%v (limit %d)",
		agree, len(cells), counted, theta, heldOutLimit)
	if counted > heldOutLimit {
		t.Fatalf("%d held-out disagreements exceed θ, want <= %d", counted, heldOutLimit)
	}
}
