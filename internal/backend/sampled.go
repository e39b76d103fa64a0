package backend

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sampledWarpCap returns the per-warp, per-kernel access budget of the
// simulated interval. It must outlive the SAC profiling window: truncating
// a kernel before its decision point would silently flip it back to
// memory-side. An SM issues at most one access per cycle shared across its
// warps, so draining warpsPerSM warps of C accesses each takes at least
// C*warpsPerSM cycles — the window is covered per-SM, and the per-warp
// budget divides by the warp count rather than paying the window per warp
// (which simulated the whole kernel at realistic machine shapes, silently
// degenerating this rung into the exact one). The generous floor covers
// skewed stream lengths, where few long warps must carry the window alone;
// the cross-fidelity decision gate (fidelitysmoke) holds the result to the
// exact engine's per-kernel decisions on all 16 Table-4 workloads.
func sampledWarpCap(windowCycles int64, warpsPerSM int) int64 {
	if warpsPerSM < 1 {
		warpsPerSM = 1
	}
	cap := (windowCycles + 2048) / int64(warpsPerSM)
	if cap < 1024 {
		cap = 1024
	}
	return cap
}

// truncated is a Workload wrapper delivering only the first cap accesses of
// every warp stream. Accesses before the cap are identical to the wrapped
// workload's, so the simulated prefix of a truncated run is bit-identical
// to the exact run's prefix.
type truncated struct {
	inner gpu.Workload
	cap   int64
}

func (t truncated) SourceName() string      { return t.inner.SourceName() }
func (t truncated) KernelCount() int        { return t.inner.KernelCount() }
func (t truncated) KernelName(i int) string { return t.inner.KernelName(i) }

func (t truncated) CheckMachine(m workload.Machine) error {
	return gpu.CheckMachine(t.inner, m)
}

func (t truncated) Stream(m workload.Machine, ki, chip, sm, warp int) workload.AccessStream {
	s := t.inner.Stream(m, ki, chip, sm, warp)
	n := s.Len()
	if n <= t.cap {
		return s
	}
	return &truncatedStream{inner: s, left: t.cap, n: t.cap}
}

type truncatedStream struct {
	inner workload.AccessStream
	left  int64
	n     int64
}

func (s *truncatedStream) Len() int64 { return s.n }

func (s *truncatedStream) Next() (workload.Access, bool) {
	if s.left <= 0 {
		return workload.Access{}, false
	}
	s.left--
	return s.inner.Next()
}

// runSampled is the interval-simulation rung: the real cycle-exact engine
// runs each kernel's opening interval (enough to cover SAC's profiling
// window, so decisions are taken by the genuine controller on genuine
// traffic), and the remainder of each kernel is fast-forwarded analytically
// by scaling the simulated interval to the kernel's full op count.
func runSampled(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	opts := cfg.SACOpts.WithDefaults()
	m := cfg.Machine()
	cap := sampledWarpCap(opts.WindowCycles, m.WarpsPerSM)

	// Full per-invocation op counts, from the analytical stream lengths —
	// these are what the simulated interval is scaled up to.
	full := make([]int64, w.KernelCount())
	for ki := range full {
		for chip := 0; chip < m.Chips; chip++ {
			for smi := 0; smi < m.SMsPerChip; smi++ {
				for warp := 0; warp < m.WarpsPerSM; warp++ {
					full[ki] += w.Stream(m, ki, chip, smi, warp).Len()
				}
			}
		}
	}

	run, err := gpu.RunWith(cfg, truncated{inner: w, cap: cap}, o)
	if err != nil {
		return nil, err
	}

	// Extrapolate: each kernel's simulated interval scales linearly to its
	// full op count; whole-run counters scale by the global ratio so rates
	// (hit rates, IPC, average latencies) carry over unchanged. Everything
	// here is arithmetic on the deterministic interval run, so sampled
	// output is deterministic too.
	var sampledOps, sampledKCycles, fullOps, newKCycles int64
	for i := range run.Kernels {
		k := &run.Kernels[i]
		sampledOps += k.MemOps
		sampledKCycles += k.Cycles
		f := full[i%len(full)]
		fullOps += f
		if k.MemOps > 0 && f > k.MemOps {
			k.Cycles = int64(math.Round(float64(k.Cycles) * float64(f) / float64(k.MemOps)))
		}
		k.MemOps = f
		newKCycles += k.Cycles
	}
	if sampledOps == 0 || fullOps <= sampledOps {
		// Truncation never bound (short streams): the interval run was the
		// whole run and no scaling is needed.
		run.Fidelity = Sampled
		return run, nil
	}
	g := float64(fullOps) / float64(sampledOps)
	scale := func(v *int64) { *v = int64(math.Round(float64(*v) * g)) }

	// Kernel boundaries (drains, launch gaps) are simulated in full, not
	// sampled: keep them unscaled and scale only the in-kernel cycles.
	boundary := run.Cycles - sampledKCycles
	if boundary < 0 {
		boundary = 0
	}
	oldCycles := run.Cycles
	run.Cycles = boundary + newKCycles

	run.MemOps = fullOps
	scale(&run.Writes)
	run.Reads = fullOps - run.Writes
	scale(&run.L1Hits)
	scale(&run.L1Misses)
	scale(&run.L1Merged)
	scale(&run.LLCHits)
	scale(&run.LLCMisses)
	for i := range run.RespCount {
		scale(&run.RespCount[i])
		scale(&run.RespBytes[i])
	}
	scale(&run.RingBytes)
	scale(&run.DRAMBytes)
	scale(&run.InvalMessages)
	scale(&run.OccLocalSum)
	scale(&run.OccRemoteSum)
	scale(&run.OccSamples)
	scale(&run.ReadLatencySum)
	scale(&run.ReadLatencyN)
	if oldCycles > 0 {
		// Skipped counts idle cycles inside Cycles; grow it with the cycle
		// estimate so the skipped fraction stays meaningful.
		run.Skipped = int64(math.Round(float64(run.Skipped) * float64(run.Cycles) / float64(oldCycles)))
	}
	run.Fidelity = Sampled
	return run, nil
}
