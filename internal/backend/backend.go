// Package backend implements the fidelity ladder behind sac.Run: two
// interchangeable rungs that turn a (config, workload) pair into a
// stats.Run at very different cost/accuracy points.
//
//   - "estimate" replays a short prefix of the deterministic access streams
//     through tag-only cache models, feeds the paper's counter architecture
//     (core.Profiler) and evaluates both organizations' EABs analytically —
//     microseconds to low milliseconds per workload, no cycle loop at all.
//   - "exact" ("" — the default) is the unmodified cycle-exact loop; this
//     package forwards it to gpu.RunWith untouched, byte for byte.
//
// The contract across rungs is decision fidelity, not cycle fidelity: the
// estimate rung must predict the exact engine's per-kernel SAC org
// decisions (pinned by TestCrossFidelityDecisions over all 16 Table-4
// workloads); its cycle counts are estimates and are labelled as such by
// Stats.Fidelity.
package backend

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/stats"
)

// The fidelity rungs, cheapest first. The empty string is accepted
// everywhere as "exact" so zero values stay backward compatible across the
// wire format, the store key and the options struct.
const (
	Estimate = "estimate"
	Exact    = "exact"
)

// Normalize canonicalises a fidelity name: "" and "exact" both mean the
// cycle-exact default and normalise to "" (so legacy store keys and wire
// requests are unchanged); "estimate" passes through; anything else is an
// error.
func Normalize(f string) (string, error) {
	switch f {
	case "", Exact:
		return "", nil
	case Estimate:
		return f, nil
	}
	return "", fmt.Errorf("unknown fidelity %q (want %q or %q)", f, Estimate, Exact)
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
// behaviour is byte-identical to calling the engine directly. Both rungs
// are deterministic — same inputs, same bytes out — which is what lets
// results from any rung live in the content-addressed store. The rungs see
// o.Fidelity cleared — selection already happened; the other options
// (faults, observer, context) apply where the rung supports them.
func Run(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	f, err := Normalize(o.Fidelity)
	if err != nil {
		return nil, err
	}
	o.Fidelity = ""
	if f == Estimate {
		return runEstimate(cfg, w, o)
	}
	return gpu.RunWith(cfg, w, o)
}
