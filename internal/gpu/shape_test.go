package gpu

// Shape tests: the qualitative behaviours the paper's evaluation hinges on,
// checked at miniature scale. These are the guardrails that keep the
// simulator's *direction* faithful while knobs are tuned.

import (
	"testing"

	"repro/internal/llc"
	"repro/internal/workload"
)

// spWorkload has a small hot truly-shared window and heavy sharing: the
// SM-side organization should win (paper's SP group).
func spWorkload() workload.Spec {
	return workload.Spec{
		Name: "sp-shape", CTAs: 64, Repeats: 1,
		Kernels: []workload.Kernel{{
			Name:      "k",
			PrivateMB: 8, FalseMB: 16, TrueMB: 16,
			BlockLines: 8, ReusePriv: 1,
			ReuseTrue: 2, SharersTrue: 3,
			PassesFalse:  3,
			TrueWindowMB: 2, FalseWindowMB: 2,
			WriteFrac: 0.1, ComputeGap: 1,
		}},
	}
}

// mpWorkload has a truly-shared working set too large to replicate and a
// dominant private footprint with LLC-reach reuse: memory-side should win
// (paper's MP group).
func mpWorkload() workload.Spec {
	return workload.Spec{
		Name: "mp-shape", CTAs: 64, Repeats: 2,
		Kernels: []workload.Kernel{{
			Name:      "k",
			PrivateMB: 96, FalseMB: 4, TrueMB: 24,
			BlockLines: 12, ReusePriv: 3, ReuseTrue: 3,
			PassesFalse:  2,
			TrueWindowMB: 24,
			WriteFrac:    0.25, ComputeGap: 1,
		}},
	}
}

func ipcOf(t *testing.T, cfg Config, spec workload.Spec) float64 {
	t.Helper()
	return mustRun(t, cfg, spec).IPC()
}

func TestSPWorkloadPrefersSMSide(t *testing.T) {
	cfg := tinyConfig()
	mem := ipcOf(t, cfg.WithOrg(llc.MemorySide), spWorkload())
	sm := ipcOf(t, cfg.WithOrg(llc.SMSide), spWorkload())
	if sm <= mem*1.1 {
		t.Fatalf("SP-shaped workload: SM-side %.4f not clearly above memory-side %.4f", sm, mem)
	}
}

func TestMPWorkloadPrefersMemorySide(t *testing.T) {
	cfg := tinyConfig()
	mem := ipcOf(t, cfg.WithOrg(llc.MemorySide), mpWorkload())
	sm := ipcOf(t, cfg.WithOrg(llc.SMSide), mpWorkload())
	if mem <= sm {
		t.Fatalf("MP-shaped workload: memory-side %.4f not above SM-side %.4f", mem, sm)
	}
}

// Figure 14's headline trend: raising the inter-chip bandwidth must shrink
// the SM-side organization's advantage on a sharing-heavy workload.
func TestInterChipBandwidthShrinksAdvantage(t *testing.T) {
	slow := tinyConfig()
	fast := tinyConfig()
	fast.RingLinkBW *= 8
	spec := spWorkload()
	advSlow := ipcOf(t, slow.WithOrg(llc.SMSide), spec) / ipcOf(t, slow.WithOrg(llc.MemorySide), spec)
	advFast := ipcOf(t, fast.WithOrg(llc.SMSide), spec) / ipcOf(t, fast.WithOrg(llc.MemorySide), spec)
	if advFast >= advSlow {
		t.Fatalf("SM-side advantage grew with inter-chip bandwidth: %.3f -> %.3f", advSlow, advFast)
	}
}

// Figure 14's LLC-capacity trend: a larger LLC lets replication pay off for
// a workload whose shared set was previously too large.
func TestLLCCapacityGrowsAdvantage(t *testing.T) {
	small := tinyConfig()
	big := tinyConfig()
	big.LLCBytesPerChip *= 4
	spec := mpWorkload() // replication-hostile at the small capacity
	advSmall := ipcOf(t, small.WithOrg(llc.SMSide), spec) / ipcOf(t, small.WithOrg(llc.MemorySide), spec)
	advBig := ipcOf(t, big.WithOrg(llc.SMSide), spec) / ipcOf(t, big.WithOrg(llc.MemorySide), spec)
	if advBig <= advSmall {
		t.Fatalf("SM-side advantage did not grow with LLC capacity: %.3f -> %.3f", advSmall, advBig)
	}
}

// Figure 13's crossover: growing the input (here: shrinking the LLC, the
// equivalent axis the paper uses for fixed-input benchmarks) must flip an
// SP workload toward memory-side.
func TestInputGrowthFlipsPreference(t *testing.T) {
	cfg := tinyConfig()
	spec := spWorkload()
	big := spec.ScaleInput(16) // shared window far beyond any replication
	advDefault := ipcOf(t, cfg.WithOrg(llc.SMSide), spec) / ipcOf(t, cfg.WithOrg(llc.MemorySide), spec)
	advBig := ipcOf(t, cfg.WithOrg(llc.SMSide), big) / ipcOf(t, cfg.WithOrg(llc.MemorySide), big)
	if advBig >= advDefault {
		t.Fatalf("input growth did not reduce the SM-side advantage: %.3f -> %.3f", advDefault, advBig)
	}
}

// Scale invariance (DESIGN.md "Scale presets"): dividing machine bandwidth, capacities
// and footprints by the same factor preserves the organization preference.
func TestScaleInvariancePreservesPreference(t *testing.T) {
	base := tinyConfig()
	half := base
	half.ClusterBW /= 2
	half.SliceBW /= 2
	half.RingLinkBW /= 2
	half.ChannelBW /= 2
	half.LLCBytesPerChip /= 2
	half.L1BytesPerSM /= 2
	half.WorkloadScale *= 2

	for _, spec := range []workload.Spec{spWorkload(), mpWorkload()} {
		prefBase := ipcOf(t, base.WithOrg(llc.SMSide), spec) > ipcOf(t, base.WithOrg(llc.MemorySide), spec)
		prefHalf := ipcOf(t, half.WithOrg(llc.SMSide), spec) > ipcOf(t, half.WithOrg(llc.MemorySide), spec)
		if prefBase != prefHalf {
			t.Fatalf("%s: preference flipped across scales (base SM-side=%v, half SM-side=%v)",
				spec.Name, prefBase, prefHalf)
		}
	}
}

// SM-side dirty evictions of remote-homed lines must write back across the
// ring: write-heavy runs move more ring bytes than read-only ones beyond
// the fill traffic.
func TestRemoteWritebacksCrossRing(t *testing.T) {
	spec := spWorkload()
	readonly := spec
	readonly.Kernels = []workload.Kernel{spec.Kernels[0]}
	readonly.Kernels[0].WriteFrac = 0

	writeheavy := spec
	writeheavy.Kernels = []workload.Kernel{spec.Kernels[0]}
	writeheavy.Kernels[0].WriteFrac = 0.4

	cfg := tinyConfig().WithOrg(llc.SMSide)
	ro := mustRun(t, cfg, readonly)
	wh := mustRun(t, cfg, writeheavy)
	if wh.RingBytes <= ro.RingBytes {
		t.Fatalf("write-heavy ring bytes %d not above read-only %d", wh.RingBytes, ro.RingBytes)
	}
	if wh.DirtyFlushed == 0 {
		t.Fatal("write-heavy SM-side run flushed no dirty lines at kernel end")
	}
}

// The drain protocol guarantees nothing is in flight across kernel
// boundaries: at each one every request is back in the pool, and memory ops
// and responses balance exactly.
func TestNoInflightLeaksAcrossKernels(t *testing.T) {
	spec := spWorkload()
	spec.Repeats = 3
	for _, org := range llc.Orgs() {
		sys, err := New(tinyConfig().WithOrg(org), spec)
		if err != nil {
			t.Fatal(err)
		}
		// System.Run's kernel loop, with the boundary checks between kernels.
		for sys.kernelIdx = 0; sys.kernelIdx < spec.KernelCount(); sys.kernelIdx++ {
			if err := sys.runKernel(); err != nil {
				t.Fatalf("%s: %v", org, err)
			}
			if sys.inflight() {
				t.Fatalf("%s: requests still in flight after kernel %d", org, sys.kernelIdx)
			}
			sys.checkConserved(t)
		}
		sys.finalize()
		r := sys.run
		var resp int64
		for _, c := range r.RespCount {
			resp += c
		}
		if resp != r.L1Misses-r.L1Merged {
			t.Fatalf("%s: %d responses for %d misses (%d merged)", org, resp, r.L1Misses, r.L1Merged)
		}
	}
}

// The intro's taxonomy: on a multi-socket system (slow links) the SM-side
// organization's advantage over memory-side must exceed its advantage on an
// MCM (fast links) for a sharing-heavy workload.
func TestSystemClassesBracketTheBaseline(t *testing.T) {
	spec := spWorkload()
	adv := func(cfg Config) float64 {
		cfg.SMsPerChip = 4
		cfg.WarpsPerSM = 4
		cfg.SlicesPerChip = 2
		cfg.LLCBytesPerChip = 64 << 10
		cfg.L1BytesPerSM = 4 << 10
		cfg.ChannelsPerChip = 2
		cfg.ChannelBW = 32
		cfg.WorkloadScale = 256
		cfg.MaxCycles = 3_000_000
		return ipcOf(t, cfg.WithOrg(llc.SMSide), spec) / ipcOf(t, cfg.WithOrg(llc.MemorySide), spec)
	}
	socket := adv(MultiSocketConfig())
	mcm := adv(MCMConfig())
	if socket <= mcm {
		t.Fatalf("multi-socket advantage %.3f not above MCM %.3f", socket, mcm)
	}
}
