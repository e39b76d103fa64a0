// Package stats collects the measurements a simulation run produces. One
// Run accumulates whole-application counters; KernelRec entries record the
// per-kernel-invocation breakdown that Figure 12 (time-varying behaviour)
// plots.
package stats

import "repro/internal/memsys"

// Run holds the counters of one complete simulation.
type Run struct {
	Benchmark string
	Org       string
	// Fidelity records which backend rung produced this Run: "estimate"
	// (closed-form EAB evaluation) or "" for the cycle-exact engine. The tag
	// is omitted from JSON when empty so exact-mode output — and every
	// stored result's content hash — stays byte-identical to pre-ladder
	// builds.
	Fidelity string `json:",omitempty"`

	Cycles  int64
	MemOps  int64 // completed memory instructions (loads + stores)
	Reads   int64
	Writes  int64
	Skipped int64 // idle cycles fast-forwarded rather than stepped (included in Cycles)

	// L1 aggregate.
	L1Hits   int64
	L1Misses int64
	L1Merged int64 // load misses merged into an outstanding same-SM miss

	// LLC aggregate (lookups at serving slices; bypasses excluded).
	LLCHits   int64
	LLCMisses int64

	// Responses delivered to SMs, keyed by origin (Figure 10's axis).
	RespCount [5]int64
	RespBytes [5]int64

	// Traffic.
	RingBytes int64
	DRAMBytes int64

	// SAC / coherence overheads.
	DirtyFlushed  int64 // LLC lines written back at flushes/reconfigurations
	Reconfigs     int64 // times the LLC switched organization
	DrainCycles   int64 // cycles spent draining in-flight requests
	InvalMessages int64 // hardware-coherence invalidation messages

	// Fault injection.
	FaultEvents int64 // per-unit health changes applied by the injector

	// LLC occupancy census (Figure 9): sums of per-sample line counts.
	OccLocalSum  int64
	OccRemoteSum int64
	OccSamples   int64

	// Latency.
	ReadLatencySum int64 // total cycles from issue to response across reads
	ReadLatencyN   int64

	Kernels []KernelRec
}

// KernelRec is the per-kernel-invocation record.
type KernelRec struct {
	Index  int
	Name   string
	Org    string // organization the kernel ran under (after any SAC switch)
	Cycles int64
	MemOps int64
}

// AddResponse records a response of n bytes served from origin o.
func (r *Run) AddResponse(o memsys.Origin, n int) {
	r.RespCount[o]++
	r.RespBytes[o] += int64(n)
}

// IPC returns completed memory instructions per cycle — the performance
// metric: kernels retire fixed work, so IPC ratios equal speedups.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemOps) / float64(r.Cycles)
}

// LLCHitRate returns hits / (hits + misses) at the LLC.
func (r *Run) LLCHitRate() float64 {
	t := r.LLCHits + r.LLCMisses
	if t == 0 {
		return 0
	}
	return float64(r.LLCHits) / float64(t)
}

// LLCMissRate returns 1 − LLCHitRate (0 with no accesses).
func (r *Run) LLCMissRate() float64 {
	t := r.LLCHits + r.LLCMisses
	if t == 0 {
		return 0
	}
	return float64(r.LLCMisses) / float64(t)
}

// EffectiveLLCBandwidth returns delivered response bytes per cycle — the
// paper's "effective LLC bandwidth" (Figures 1c and 10).
func (r *Run) EffectiveLLCBandwidth() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var b int64
	for _, v := range r.RespBytes {
		b += v
	}
	return float64(b) / float64(r.Cycles)
}

// RespBreakdown returns the per-origin share of delivered response bytes
// normalized per cycle, in Origin order.
func (r *Run) RespBreakdown() [5]float64 {
	var out [5]float64
	if r.Cycles == 0 {
		return out
	}
	for i, v := range r.RespBytes {
		out[i] = float64(v) / float64(r.Cycles)
	}
	return out
}

// RemoteOccupancy returns the average fraction of valid LLC lines holding
// remote-homed data (Figure 9).
func (r *Run) RemoteOccupancy() float64 {
	t := r.OccLocalSum + r.OccRemoteSum
	if t == 0 {
		return 0
	}
	return float64(r.OccRemoteSum) / float64(t)
}

// AvgReadLatency returns mean cycles from issue to response for loads.
func (r *Run) AvgReadLatency() float64 {
	if r.ReadLatencyN == 0 {
		return 0
	}
	return float64(r.ReadLatencySum) / float64(r.ReadLatencyN)
}

// Speedup returns r's performance relative to base (IPC ratio).
func Speedup(r, base *Run) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// HarmonicMeanSpeedup aggregates per-benchmark speedups the way the paper
// reports group averages.
func HarmonicMeanSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	var inv float64
	for _, s := range speedups {
		if s <= 0 {
			return 0
		}
		inv += 1 / s
	}
	return float64(len(speedups)) / inv
}
