package backend

import (
	"os"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

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
		picked := false
		for _, k := range run.Kernels {
			if k.Org == "SM-side" {
				picked = true
			}
		}
		exact[name] = picked
		t.Logf("exact %-5s pickSM=%v", name, picked)
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
			picked := false
			for _, k := range run.Kernels {
				if k.Org == "SM-side" {
					picked = true
				}
			}
			if picked == exact[name] {
				agree++
			} else {
				wrong = append(wrong, name)
			}
		}
		t.Logf("warpSteps=%-3d agree=%d/%d wrong=%v", cap, agree, len(names), wrong)
	}
}
