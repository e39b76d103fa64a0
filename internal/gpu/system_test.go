package gpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/llc"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyConfig is a miniature machine for unit tests: small enough that a run
// finishes in milliseconds, large enough that all five organizations are
// meaningfully different.
func tinyConfig() Config {
	c := ScaledConfig()
	c.SMsPerChip = 4
	c.WarpsPerSM = 4
	c.SMsPerCluster = 2
	c.SlicesPerChip = 2
	c.LLCBytesPerChip = 64 << 10 // 512 lines per chip
	c.L1BytesPerSM = 4 << 10     // 32 lines
	c.ClusterBW = 128
	c.SliceBW = 128
	c.RingLinkBW = 12
	c.ChannelBW = 32
	c.ChannelsPerChip = 2
	c.WorkloadScale = 256
	c.SACOpts.WindowCycles = 3000
	c.MaxCycles = 3_000_000
	return c
}

// tinyWorkload is a small mixed-sharing benchmark at WorkloadScale 256.
func tinyWorkload() workload.Spec {
	return workload.Spec{
		Name: "tinybench", CTAs: 64, Repeats: 1,
		Kernels: []workload.Kernel{{
			Name:      "k0",
			PrivateMB: 24, FalseMB: 12, TrueMB: 12,
			BlockLines: 8, ReusePriv: 2, ReuseFalse: 2, ReuseTrue: 3,
			PassesPriv: 1, PassesFalse: 1,
			TrueWindowMB: 4, WriteFrac: 0.15, ComputeGap: 2,
		}},
	}
}

func mustRun(t *testing.T, cfg Config, spec workload.Spec) *stats.Run {
	t.Helper()
	r, err := RunWith(cfg, spec, RunOpts{})
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", cfg.Org, spec.Name, err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{PaperConfig(), ScaledConfig(), tinyConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	bad := ScaledConfig()
	bad.Chips = 1
	if err := bad.Validate(); err == nil {
		t.Error("1-chip config accepted")
	}
	bad = ScaledConfig()
	bad.SMsPerCluster = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing cluster size accepted")
	}
}

func TestArchParamsShape(t *testing.T) {
	a := PaperConfig().ArchParams()
	// Table 3: 4 TB/s NoC per chip → 16384 B/c; ring 768; LLC 16384; DRAM ~1750.
	if a.BIntra != 16384 || a.BInter != 768 || a.BLLC != 16384 {
		t.Fatalf("paper arch params %+v", a)
	}
	if a.BMem < 1700 || a.BMem > 1800 {
		t.Fatalf("BMem = %v, want ~1750", a.BMem)
	}
	s := ScaledConfig().ArchParams()
	if r := a.BIntra / a.BInter; s.BIntra/s.BInter != r {
		t.Fatalf("intra:inter ratio changed at scale: %v vs %v", s.BIntra/s.BInter, r)
	}
}

func TestRunCompletesAllOrgs(t *testing.T) {
	spec := tinyWorkload()
	var totalOps int64
	for i, org := range llc.Orgs() {
		r := mustRun(t, tinyConfig().WithOrg(org), spec)
		if r.MemOps == 0 || r.Cycles == 0 {
			t.Fatalf("%s: empty run %+v", org, r)
		}
		if r.Org != org.String() {
			t.Fatalf("org label %q", r.Org)
		}
		// All organizations retire identical work.
		if i == 0 {
			totalOps = r.MemOps
		} else if r.MemOps != totalOps {
			t.Fatalf("%s retired %d ops, memory-side retired %d", org, r.MemOps, totalOps)
		}
		if r.IPC() <= 0 {
			t.Fatalf("%s: non-positive IPC", org)
		}
	}
}

func TestMemorySideCachesOnlyLocalData(t *testing.T) {
	r := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), tinyWorkload())
	if r.RemoteOccupancy() != 0 {
		t.Fatalf("memory-side LLC holds %.1f%% remote data, want 0",
			100*r.RemoteOccupancy())
	}
	// A memory-side LLC never serves from a "local LLC" for remote lines but
	// must see remote LLC hits given the shared regions.
	if r.RespCount[memsys.OriginRemoteLLC] == 0 {
		t.Fatal("no remote LLC hits despite shared data")
	}
}

func TestSMSideCachesRemoteData(t *testing.T) {
	r := mustRun(t, tinyConfig().WithOrg(llc.SMSide), tinyWorkload())
	if r.RemoteOccupancy() == 0 {
		t.Fatal("SM-side LLC holds no remote data despite shared regions")
	}
	// SM-side never hits in a remote LLC (remote misses bypass it).
	if r.RespCount[memsys.OriginRemoteLLC] != 0 {
		t.Fatalf("SM-side saw %d remote LLC hits, want 0",
			r.RespCount[memsys.OriginRemoteLLC])
	}
}

func TestSMSideHigherMissRate(t *testing.T) {
	// Paper Figure 1b: replication uniformly raises the LLC miss rate.
	mem := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), tinyWorkload())
	sm := mustRun(t, tinyConfig().WithOrg(llc.SMSide), tinyWorkload())
	if sm.LLCMissRate() <= mem.LLCMissRate() {
		t.Fatalf("SM-side miss rate %.3f not above memory-side %.3f",
			sm.LLCMissRate(), mem.LLCMissRate())
	}
}

func TestStaticCachesBothKinds(t *testing.T) {
	r := mustRun(t, tinyConfig().WithOrg(llc.Static), tinyWorkload())
	occ := r.RemoteOccupancy()
	if occ == 0 || occ > 0.75 {
		t.Fatalf("static LLC remote occupancy %.2f, want in (0, 0.75]", occ)
	}
}

func TestSACRunsAndDecides(t *testing.T) {
	r := mustRun(t, tinyConfig().WithOrg(llc.SAC), tinyWorkload())
	if len(r.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(r.Kernels))
	}
	rec := r.Kernels[0]
	if rec.Org != "memory-side" && rec.Org != "SM-side" {
		t.Fatalf("kernel org %q", rec.Org)
	}
	if rec.Org == "SM-side" && r.Reconfigs == 0 {
		t.Fatal("SM-side kernel without a recorded reconfiguration")
	}
}

func TestSACTracksBestOrganization(t *testing.T) {
	// SAC must land within a reasonable margin of the better of the two pure
	// organizations (paper Figure 8's central claim).
	spec := tinyWorkload()
	mem := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), spec)
	sm := mustRun(t, tinyConfig().WithOrg(llc.SMSide), spec)
	sac := mustRun(t, tinyConfig().WithOrg(llc.SAC), spec)
	best := max(mem.IPC(), sm.IPC())
	if sac.IPC() < best*0.75 {
		t.Fatalf("SAC IPC %.4f below 75%% of best pure org %.4f (mem %.4f, sm %.4f)",
			sac.IPC(), best, mem.IPC(), sm.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	spec := tinyWorkload()
	cfg := tinyConfig().WithOrg(llc.SAC)
	a := mustRun(t, cfg, spec)
	b := mustRun(t, cfg, spec)
	if a.Cycles != b.Cycles || a.MemOps != b.MemOps || a.LLCHits != b.LLCHits ||
		a.RingBytes != b.RingBytes || a.DRAMBytes != b.DRAMBytes {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestHardwareCoherenceInvalidates(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SMSide)
	cfg.Coherence = coherence.Hardware
	r := mustRun(t, cfg, tinyWorkload())
	if r.InvalMessages == 0 {
		t.Fatal("hardware coherence generated no invalidations despite shared writes")
	}
	soft := mustRun(t, tinyConfig().WithOrg(llc.SMSide), tinyWorkload())
	if soft.InvalMessages != 0 {
		t.Fatal("software coherence generated invalidation messages")
	}
}

func TestSoftwareCoherenceFlushesAtKernelBoundaries(t *testing.T) {
	spec := tinyWorkload()
	spec.Repeats = 2
	r := mustRun(t, tinyConfig().WithOrg(llc.SMSide), spec)
	if r.DirtyFlushed == 0 {
		t.Fatal("SM-side software coherence never flushed dirty LLC lines")
	}
	mem := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), spec)
	if mem.DirtyFlushed != 0 {
		t.Fatal("memory-side flushed the LLC at kernel boundaries")
	}
}

func TestMultiKernelRun(t *testing.T) {
	spec := tinyWorkload()
	spec.Repeats = 3
	r := mustRun(t, tinyConfig().WithOrg(llc.SAC), spec)
	if len(r.Kernels) != 3 {
		t.Fatalf("kernel records = %d, want 3", len(r.Kernels))
	}
	var sum int64
	for _, k := range r.Kernels {
		if k.Cycles <= 0 || k.MemOps <= 0 {
			t.Fatalf("degenerate kernel record %+v", k)
		}
		sum += k.MemOps
	}
	if sum != r.MemOps {
		t.Fatalf("kernel ops sum %d != total %d", sum, r.MemOps)
	}
}

func TestResponsesAccountedOnce(t *testing.T) {
	r := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), tinyWorkload())
	var resp int64
	for _, c := range r.RespCount {
		resp += c
	}
	// Every non-merged L1 read miss produces exactly one response (same-SM
	// merged waiters share the primary miss's response).
	if resp != r.L1Misses-r.L1Merged {
		t.Fatalf("%d responses for %d L1 read misses (%d merged)", resp, r.L1Misses, r.L1Merged)
	}
	if r.ReadLatencyN != resp {
		t.Fatalf("latency samples %d != responses %d", r.ReadLatencyN, resp)
	}
	if r.AvgReadLatency() <= 0 {
		t.Fatal("non-positive read latency")
	}
}

func TestTwoChipSystem(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SAC)
	cfg.Chips = 2
	cfg.RingLinkBW *= 2 // GPU-count sensitivity keeps total ring bandwidth
	r := mustRun(t, cfg, tinyWorkload())
	if r.MemOps == 0 {
		t.Fatal("2-chip run empty")
	}
}

func TestSectoredRun(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.SAC)
	cfg.Sectored = true
	r := mustRun(t, cfg, tinyWorkload())
	if r.MemOps == 0 {
		t.Fatal("sectored run empty")
	}
}

func TestDynamicAdjustsPartition(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.Dynamic)
	cfg.DynamicEpoch = 512
	r := mustRun(t, cfg, tinyWorkload())
	if r.MemOps == 0 {
		t.Fatal("dynamic run empty")
	}
}

func TestRunRejectsEmptySpec(t *testing.T) {
	if _, err := RunWith(tinyConfig(), workload.Spec{Name: "empty"}, RunOpts{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestKernelDecisionCacheExtension(t *testing.T) {
	spec := tinyWorkload()
	spec.Repeats = 3
	base := tinyConfig().WithOrg(llc.SAC)
	cached := base
	cached.SACOpts.ReuseKernelDecisions = true

	plain := mustRun(t, base, spec)
	fast := mustRun(t, cached, spec)
	// Same decisions on every invocation...
	for i := range plain.Kernels {
		if plain.Kernels[i].Org != fast.Kernels[i].Org {
			t.Fatalf("kernel %d: decision changed with cache (%s vs %s)",
				i, plain.Kernels[i].Org, fast.Kernels[i].Org)
		}
	}
	// ...but repeat invocations skip the profiling window, so when the
	// decision is SM-side the cached run must not be slower overall.
	if fast.Kernels[0].Org == "SM-side" && fast.Cycles > plain.Cycles {
		t.Fatalf("decision cache slowed the run: %d vs %d cycles", fast.Cycles, plain.Cycles)
	}
}

func TestPeriodicReprofilingExtension(t *testing.T) {
	spec := tinyWorkload()
	cfg := tinyConfig().WithOrg(llc.SAC)
	cfg.SACOpts.ReprofileEvery = 4000

	plain := mustRun(t, tinyConfig().WithOrg(llc.SAC), spec)
	re := mustRun(t, cfg, spec)
	if re.MemOps != plain.MemOps {
		t.Fatalf("re-profiling changed retired work: %d vs %d", re.MemOps, plain.MemOps)
	}
	// Re-profiling must not be catastropically slower than deciding once,
	// and on a phase-stable workload it should reach the same final mode.
	if re.Cycles > plain.Cycles*2 {
		t.Fatalf("re-profiling doubled runtime: %d vs %d", re.Cycles, plain.Cycles)
	}
	if plain.Kernels[0].Org == "SM-side" && re.Reconfigs < plain.Reconfigs {
		t.Fatalf("reconfig counts: plain %d, reprofiling %d", plain.Reconfigs, re.Reconfigs)
	}
}

func TestBankTimingEndToEnd(t *testing.T) {
	cfg := tinyConfig().WithOrg(llc.MemorySide)
	cfg.BanksPerChannel = 8
	banked := mustRun(t, cfg, tinyWorkload())
	plain := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), tinyWorkload())
	if banked.MemOps != plain.MemOps {
		t.Fatalf("bank timing changed retired work: %d vs %d", banked.MemOps, plain.MemOps)
	}
	// Bank occupancy can only slow things down (same bandwidth, extra gate).
	if banked.Cycles < plain.Cycles {
		t.Fatalf("bank timing sped the run up: %d vs %d", banked.Cycles, plain.Cycles)
	}
}
