package gpu

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// lawConfig is the tiny machine of the server and cluster tests: tinyConfig's
// shape with a 1,500-cycle profiling window, so short kernels decide.
func lawConfig(scale int) Config {
	c := ScaledConfig()
	c.SMsPerChip = 4
	c.WarpsPerSM = 4
	c.SlicesPerChip = 2
	c.LLCBytesPerChip = 64 << 10
	c.L1BytesPerSM = 4 << 10
	c.ChannelsPerChip = 2
	c.ChannelBW = 32
	c.RingLinkBW = 12
	c.WorkloadScale = scale
	c.SACOpts.WindowCycles = 1500
	return c
}

// sweepScaleConfig is ScaledConfig with footprints, LLC and L1 divided by 4:
// the configuration of the benchmark module's exact_sweep.
func sweepScaleConfig() Config {
	c := ScaledConfig()
	c.WorkloadScale *= 4
	c.LLCBytesPerChip /= 4
	c.L1BytesPerSM /= 4
	return c
}

func runJSON(t *testing.T, r *stats.Run) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sacAndTwin runs cfg's SAC cell and returns its result and memory-side twin.
func sacAndTwin(t *testing.T, cfg Config, spec Workload, plan *fault.Plan) (run, twin *stats.Run) {
	t.Helper()
	run, twin, err := RunWithTwin(cfg.WithOrg(llc.SAC), spec, RunOpts{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return run, twin
}

func memorySideRun(t *testing.T, cfg Config, spec Workload, plan *fault.Plan) *stats.Run {
	t.Helper()
	run, err := RunWith(cfg.WithOrg(llc.MemorySide), spec, RunOpts{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestMemorySideTwinLaw holds the law RunWithTwin rests on: a SAC run that no
// kernel switched and whose fast-forwards no SAC timed event cut short is
// the memory-side run, byte for byte but for Org. Every twin offered — over
// the 16 specs at four scales, the 16 under one fault plan, and the three
// specs exact_sweep's SAC cells never switch on, at its configuration —
// must equal an independent memory-side run.
func TestMemorySideTwinLaw(t *testing.T) {
	type cell struct {
		cfg  Config
		spec workload.Spec
		plan *fault.Plan
	}
	var cells []cell
	for _, scale := range []int{256, 512, 1024, 2176} {
		for _, name := range workload.Names() {
			cells = append(cells, cell{lawConfig(scale), mustSpec(t, name), nil})
		}
	}
	plan := mixedPlan(t)
	for _, name := range workload.Names() {
		cells = append(cells, cell{lawConfig(512), mustSpec(t, name), plan})
	}
	for _, name := range []string{"BP", "DWT", "GEMM"} {
		cells = append(cells, cell{sweepScaleConfig(), mustSpec(t, name), nil})
	}

	twins := 0
	for i, c := range cells {
		_, twin := sacAndTwin(t, c.cfg, c.spec, c.plan)
		if twin == nil {
			if i >= len(cells)-3 {
				t.Errorf("%s at exact_sweep's configuration offered no twin", c.spec.Name)
			}
			continue
		}
		twins++
		if got, want := runJSON(t, twin), runJSON(t, memorySideRun(t, c.cfg, c.spec, c.plan)); got != want {
			t.Errorf("%s at scale %d (faults %q): twin differs from the memory-side run\ntwin %s\nmem  %s",
				c.spec.Name, c.cfg.WorkloadScale, c.plan.Key(), got, want)
		}
	}
	t.Logf("%d of %d SAC cells offered a twin", twins, len(cells))
	if twins < len(cells)/4 {
		t.Errorf("only %d of %d SAC cells offered a twin: the law is barely exercised", twins, len(cells))
	}
}

// TestMemorySideTwinWithheld pins the two ways a SAC run stops being its
// memory-side twin. NN at scale 2176 never switches, but its profiling
// window ends inside an idle span the memory-side run skips whole: the SAC
// run steps that cycle (Skipped one lower), so "never switched" alone is not
// the law. BFS switches.
func TestMemorySideTwinWithheld(t *testing.T) {
	cfg, spec := lawConfig(2176), mustSpec(t, "NN")
	run, twin := sacAndTwin(t, cfg, spec, nil)
	if twin != nil {
		t.Fatal("NN at scale 2176: a run whose window end cut a fast-forward short offered a twin")
	}
	if run.Reconfigs != 0 {
		t.Fatalf("NN at scale 2176 switched (%d reconfigurations): the capped-window counterexample is gone", run.Reconfigs)
	}
	mem := memorySideRun(t, cfg, spec, nil)
	if run.Skipped != mem.Skipped-1 {
		t.Errorf("NN at scale 2176: SAC skipped %d cycles, memory-side %d; want exactly one fewer", run.Skipped, mem.Skipped)
	}
	relabelled := *run
	relabelled.Org, relabelled.Skipped = mem.Org, mem.Skipped
	if got, want := runJSON(t, &relabelled), runJSON(t, mem); got != want {
		t.Errorf("NN at scale 2176 differs from memory-side beyond Skipped\nsac %s\nmem %s", got, want)
	}

	run, twin = sacAndTwin(t, lawConfig(512), mustSpec(t, "BFS"), nil)
	if run.Reconfigs == 0 || twin != nil {
		t.Errorf("BFS at scale 512: %d reconfigurations, twin offered %v; want a switch and no twin", run.Reconfigs, twin != nil)
	}
}
