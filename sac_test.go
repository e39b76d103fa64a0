package sac_test

import (
	"strings"
	"testing"

	sac "repro"
	"repro/internal/workload"
)

// fastConfig shrinks the scaled preset for test speed while keeping all
// bandwidth and capacity ratios.
func fastConfig() sac.Config {
	cfg := sac.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 512
	cfg.SACOpts.WindowCycles = 1500
	return cfg
}

func TestBenchmarkCatalog(t *testing.T) {
	if got := len(sac.Benchmarks()); got != 16 {
		t.Fatalf("catalog size %d", got)
	}
	if got := len(sac.BenchmarkNames()); got != 16 {
		t.Fatalf("names %d", got)
	}
	if _, err := sac.Benchmark("NOPE"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(sac.Orgs()) != 5 {
		t.Fatal("org list wrong")
	}
	for _, n := range sac.FastSet() {
		if _, err := sac.Benchmark(n); err != nil {
			t.Fatalf("FastSet name %q invalid", n)
		}
	}
}

func TestEABModelSurface(t *testing.T) {
	arch := sac.PaperConfig().ArchParams()
	w := sac.WorkloadInputs{RLocal: 0.3}
	w.MemSide.LLCHit, w.MemSide.LSU = 0.8, 0.5
	w.SMSide.LLCHit, w.SMSide.LSU = 0.7, 0.95
	d := sac.DecideEAB(arch, w, 0.05)
	if !d.PickSM {
		t.Fatalf("SP-shaped inputs stayed memory-side: %+v", d)
	}
	if got := sac.LSU([]int64{10, 10}); got != 1 {
		t.Fatalf("LSU = %v", got)
	}
}

func TestHardwareBudgetSurface(t *testing.T) {
	if b := sac.HardwareBudget(false); b.TotalBytes != 620 {
		t.Fatalf("conventional budget %d, want 620", b.TotalBytes)
	}
	if b := sac.HardwareBudget(true); b.TotalBytes != 812 {
		t.Fatalf("sectored budget %d, want 812", b.TotalBytes)
	}
}

func TestWorkingSetsSurface(t *testing.T) {
	spec, _ := sac.Benchmark("RN")
	res, err := sac.WorkingSets(fastConfig(), spec, []int64{1000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 || res.FootprintMB <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestNewSystemExposesMode(t *testing.T) {
	spec, _ := sac.Benchmark("BP")
	sys, err := sac.NewSystem(fastConfig().WithOrg(sac.MemorySide), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode().String() != "memory-side" {
		t.Fatalf("mode %v", sys.Mode())
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerSurface(t *testing.T) {
	r := &sac.Runner{Base: fastConfig(), Benchmarks: []string{"RN"}}
	f, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.KernelNames) == 0 {
		t.Fatal("no kernels")
	}
}

// TestPresetsAndNoCCostSurface: the two fabric presets validate and sit on
// either side of the scaled baseline's ring bandwidth (MCM above, multi-socket
// below), and the NoC cost report prices the SM-side design above memory-side.
func TestPresetsAndNoCCostSurface(t *testing.T) {
	mcm, scaled, socket := sac.MCMConfig(), sac.ScaledConfig(), sac.MultiSocketConfig()
	for name, cfg := range map[string]sac.Config{"MCM": mcm, "multi-socket": socket} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s preset: %v", name, err)
		}
	}
	if !(mcm.RingLinkBW > scaled.RingLinkBW && scaled.RingLinkBW > socket.RingLinkBW) {
		t.Fatalf("ring link bandwidth MCM %v, scaled %v, multi-socket %v: want strictly decreasing",
			mcm.RingLinkBW, scaled.RingLinkBW, socket.RingLinkBW)
	}
	r := sac.NoCCost()
	if r.SMAreaOverhead() <= 0 || r.SMPowerOverhead() <= 0 {
		t.Fatalf("SM-side NoC overheads area %v, power %v: want both positive", r.SMAreaOverhead(), r.SMPowerOverhead())
	}
}

func TestHarmonicMeanSurface(t *testing.T) {
	if hm := sac.HarmonicMean([]float64{1, 1}); hm != 1 {
		t.Fatalf("HM = %v", hm)
	}
}

func TestFaultAPISurface(t *testing.T) {
	cfg := fastConfig()
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sac.ParseFaultPlan("xchip:0.cw@2000-30000*0.5; dram:1.0@1000-40000*0.5")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := sac.Run(cfg.WithOrg(sac.SAC), spec, sac.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.FaultEvents == 0 {
		t.Fatal("fault plan injected no events")
	}
	healthy, err := sac.Run(cfg.WithOrg(sac.SAC), spec, sac.WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.FaultEvents != 0 {
		t.Fatalf("nil plan injected %d events", healthy.FaultEvents)
	}
	gen := sac.GenerateFaultPlan(cfg, 7, 5, 50_000)
	if len(gen.Events) != 5 {
		t.Fatalf("generated %d events, want 5", len(gen.Events))
	}
	if gen.Key() != sac.GenerateFaultPlan(cfg, 7, 5, 50_000).Key() {
		t.Fatal("generation not deterministic per seed")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.Chips = 0
	spec, err := sac.Benchmark("RN")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sac.Run(cfg, spec); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := sac.NewSystem(cfg, spec); err == nil {
		t.Fatal("invalid config accepted by NewSystem")
	}
	if _, err := sac.Run(cfg, spec, sac.WithFaults(nil)); err == nil {
		t.Fatal("invalid config accepted by Run with a fault option")
	}
}

// panicWorkload implements sac.Workload and explodes when streamed, modeling
// a buggy user workload source: the guard must convert the panic into an
// error instead of killing the caller.
type panicWorkload struct{}

func (panicWorkload) SourceName() string    { return "panic" }
func (panicWorkload) KernelCount() int      { return 1 }
func (panicWorkload) KernelName(int) string { return "k0" }
func (panicWorkload) Stream(m workload.Machine, ki, chip, sm, warp int) workload.AccessStream {
	panic("boom from workload")
}

func TestRunWorkloadContainsPanic(t *testing.T) {
	_, err := sac.Run(fastConfig(), panicWorkload{})
	if err == nil {
		t.Fatal("panicking workload returned nil error")
	}
	if !strings.Contains(err.Error(), "boom from workload") {
		t.Fatalf("panic context lost: %v", err)
	}
}
