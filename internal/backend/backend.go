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
	"slices"

	"repro/internal/gpu"
	"repro/internal/llc"
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

// What each rung answers: exact, every stats.Run field under every
// organization; estimate, the fields synthesize writes (every other field of
// its runs is zero) under the organizations it prices from a measured side.
// TestEstimateCoverage pins estimateFields to synthesize.
var (
	estimateFields = []string{"Cycles", "MemOps", "Reads", "Writes", "L1Hits", "L1Misses",
		"LLCHits", "LLCMisses", "RingBytes", "DRAMBytes", "Kernels"}
	estimateOrgs = []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC}
)

// CoverageError is a question a rung does not model: an organization it
// does not price (Org), else a stats.Run field it does not fill (Field).
type CoverageError struct{ Fidelity, Org, Field string }

func (e *CoverageError) Error() string {
	if e.Org != "" {
		return fmt.Sprintf("fidelity %q does not model the %s organization; use %q", e.Fidelity, e.Org, Exact)
	}
	return fmt.Sprintf("fidelity %q does not model stats.Run.%s; use %q", e.Fidelity, e.Field, Exact)
}

// Covers asks a rung for every organization in orgs and every named stats.Run
// field: nil at exact, a *CoverageError naming the first missing organization
// (else field) at estimate, and Normalize's error for a rung the ladder lacks.
func Covers(fidelity string, orgs []llc.Org, fields ...string) error {
	f, err := Normalize(fidelity)
	if err != nil || f == "" {
		return err
	}
	if i := slices.IndexFunc(orgs, func(o llc.Org) bool { return !slices.Contains(estimateOrgs, o) }); i >= 0 {
		return &CoverageError{Fidelity: f, Org: orgs[i].String()}
	}
	if i := slices.IndexFunc(fields, func(n string) bool { return !slices.Contains(estimateFields, n) }); i >= 0 {
		return &CoverageError{Fidelity: f, Field: fields[i]}
	}
	return nil
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
