// Package backend implements the fidelity ladder behind sac.Run: three
// interchangeable rungs that turn a (config, workload) pair into a
// stats.Run at very different cost/accuracy points.
//
//   - "estimate" replays a short prefix of the deterministic access streams
//     through tag-only cache models, feeds the paper's counter architecture
//     (core.Profiler) and evaluates both organizations' EABs analytically —
//     microseconds to low milliseconds per workload, no cycle loop at all.
//   - "sampled" cycle-simulates a bounded profiling window per kernel on the
//     real engine (so SAC's decisions are taken by the genuine controller on
//     genuine traffic) and fast-forwards the remainder of each kernel with
//     the analytical bandwidth extrapolation.
//   - "exact" ("" — the default) is the unmodified cycle-exact loop; this
//     package forwards it to gpu.RunWith untouched, byte for byte.
//
// The contract across rungs is decision fidelity, not cycle fidelity: the
// fast rungs must predict the exact engine's SAC org decision (pinned by
// TestCrossFidelityDecisions over all 16 Table-4 workloads); their cycle
// counts are estimates and are labelled as such by Stats.Fidelity.
package backend

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/stats"
)

// The fidelity rungs, in increasing cost and accuracy. The empty string is
// accepted everywhere as "exact" so zero values stay backward compatible
// across the wire format, the store key and the options struct.
const (
	Estimate = "estimate"
	Sampled  = "sampled"
	Exact    = "exact"
)

// Normalize canonicalises a fidelity name: "" and "exact" both mean the
// cycle-exact default and normalise to "" (so legacy store keys and wire
// requests are unchanged); "estimate" and "sampled" pass through; anything
// else is an error.
func Normalize(f string) (string, error) {
	switch f {
	case "", Exact:
		return "", nil
	case Estimate, Sampled:
		return f, nil
	}
	return "", fmt.Errorf("unknown fidelity %q (want %q, %q or %q)", f, Estimate, Sampled, Exact)
}

// Display renders a normalized fidelity for humans: "" reads as "exact".
func Display(f string) string {
	if f == "" {
		return Exact
	}
	return f
}

// Run dispatches one simulation to the rung named by o.Fidelity. This is
// the single entry point sac.Run and the experiment engine route through;
// the exact path is a plain tail call into gpu.RunWith, so default-fidelity
// behaviour is byte-identical to calling the engine directly. All three
// rungs are deterministic — same inputs, same bytes out — which is what lets
// results from any rung live in the content-addressed store. The rungs see
// o.Fidelity cleared — selection already happened; the other options
// (faults, observer, context) apply where the rung supports them.
func Run(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	f, err := Normalize(o.Fidelity)
	if err != nil {
		return nil, err
	}
	o.Fidelity = ""
	switch f {
	case Estimate:
		return runEstimate(cfg, w, o)
	case Sampled:
		return runSampled(cfg, w, o)
	}
	return gpu.RunWith(cfg, w, o)
}
