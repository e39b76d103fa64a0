// Package profile implements the off-line working-set analysis behind
// Figure 11 of the paper: for a benchmark's generated address streams, it
// measures the unique footprint touched within fixed-size time windows,
// classified into truly-shared, falsely-shared and non-shared lines
// (§2.2 definitions), and compares the replicated working set against the
// system's total LLC capacity.
//
// The analyzer replays the same deterministic streams the timing simulator
// executes, interleaving warps round-robin — one access per warp per step —
// which approximates concurrent execution without timing. A "cycle" here is
// one interleave step divided by the machine's issue width, so window sizes
// are comparable to simulator cycles.
package profile

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/workload"
)

// WindowStat is the measured working set of one time-window size.
type WindowStat struct {
	WindowCycles int64
	// Mean unique bytes touched per window, by sharing class, scaled back
	// to full (paper) footprint by the machine's Scale factor.
	TrueSharedMB  float64
	FalseSharedMB float64
	NonSharedMB   float64
	Windows       int
}

// TotalMB returns the mean total working set per window.
func (w WindowStat) TotalMB() float64 {
	return w.TrueSharedMB + w.FalseSharedMB + w.NonSharedMB
}

// ReplicatedMB returns the working set after SM-side replication: truly
// shared lines occupy one copy per chip (chips× capacity), falsely shared
// and non-shared lines one copy.
func (w WindowStat) ReplicatedMB(chips int) float64 {
	return float64(chips)*w.TrueSharedMB + w.FalseSharedMB + w.NonSharedMB
}

// Result is the Figure 11 row of one benchmark.
type Result struct {
	Benchmark string
	Windows   []WindowStat
	// Whole-run footprint by class (the Table 4 columns), in full-scale MB.
	FootprintMB   float64
	TrueSharedMB  float64
	FalseSharedMB float64
	// CapMB is the cap applied to per-window accounting (the paper caps
	// Figure 11 at 32 MB).
	CapMB float64
}

// Analyzer replays streams and accumulates window statistics.
type Analyzer struct {
	machine workload.Machine
	windows []int64
	capMB   float64
}

// New returns an analyzer for the given machine shape. windowCycles lists
// the window sizes to measure (the paper uses 1K, 10K and 100K cycles);
// capMB caps the reported per-window set (32 MB in the paper, at full
// scale). Pass capMB <= 0 for no cap.
func New(m workload.Machine, windowCycles []int64, capMB float64) (*Analyzer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(windowCycles) == 0 {
		return nil, fmt.Errorf("profile: no window sizes")
	}
	return &Analyzer{machine: m, windows: windowCycles, capMB: capMB}, nil
}

type warpCursor struct {
	chip   int
	stream *workload.Stream
}

// Analyze measures spec. All kernel invocations are replayed back to back,
// into one sharing census.
func (a *Analyzer) Analyze(spec workload.Spec) (Result, error) {
	if len(spec.Kernels) == 0 {
		return Result{}, fmt.Errorf("profile: spec %q has no kernels", spec.Name)
	}
	m := a.machine
	census := addr.NewCensus(m.Geom, m.Chips)

	res := Result{Benchmark: spec.Name, CapMB: a.capMB}
	accs := make([]*windowAccumulator, len(a.windows))
	for i, w := range a.windows {
		accs[i] = newWindowAccumulator(w, a.capMB, m, census)
	}

	// First pass: build the complete sharing map (classification of a line
	// can only be final once all accessors are known; the paper's analysis
	// is similarly post-hoc).
	for ki := 0; ki < spec.KernelCount(); ki++ {
		cursors := a.cursors(spec, ki)
		live := true
		for live {
			live = false
			for _, c := range cursors {
				acc, ok := c.stream.Next()
				if !ok {
					continue
				}
				live = true
				census.Touch(acc.Line, c.chip)
			}
		}
	}
	total, ts, fs := census.FootprintBytes()
	scale := float64(m.Scale) / (1 << 20)
	res.FootprintMB = float64(total) * scale
	res.TrueSharedMB = float64(ts) * scale
	res.FalseSharedMB = float64(fs) * scale

	// Second pass: window accounting with the final classification.
	issueWidth := int64(m.Chips * m.SMsPerChip) // accesses per simulated cycle
	step := int64(0)
	for ki := 0; ki < spec.KernelCount(); ki++ {
		cursors := a.cursors(spec, ki)
		live := true
		for live {
			live = false
			for _, c := range cursors {
				acc, ok := c.stream.Next()
				if !ok {
					continue
				}
				live = true
				step++
				cycle := step / issueWidth
				for _, w := range accs {
					w.record(cycle, acc.Line)
				}
			}
		}
	}
	for _, w := range accs {
		res.Windows = append(res.Windows, w.finish())
	}
	return res, nil
}

func (a *Analyzer) cursors(spec workload.Spec, ki int) []warpCursor {
	m := a.machine
	var out []warpCursor
	for chip := 0; chip < m.Chips; chip++ {
		for sm := 0; sm < m.SMsPerChip; sm++ {
			for w := 0; w < m.WarpsPerSM; w++ {
				out = append(out, warpCursor{chip, spec.NewStream(m, ki, chip, sm, w)})
			}
		}
	}
	return out
}

// windowAccumulator tracks unique lines per window of fixed cycle length.
type windowAccumulator struct {
	window int64
	capMB  float64
	m      workload.Machine
	census *addr.Census

	cur     map[uint64]struct{}
	curBase int64

	sumTrue, sumFalse, sumNon float64
	n                         int
}

func newWindowAccumulator(window int64, capMB float64, m workload.Machine, census *addr.Census) *windowAccumulator {
	return &windowAccumulator{
		window: window, capMB: capMB, m: m, census: census,
		cur: make(map[uint64]struct{}),
	}
}

func (w *windowAccumulator) record(cycle int64, line uint64) {
	if cycle-w.curBase >= w.window {
		w.flush()
		w.curBase = cycle - cycle%w.window
	}
	w.cur[line] = struct{}{}
}

func (w *windowAccumulator) flush() {
	if len(w.cur) == 0 {
		return
	}
	var t, f, n int
	for line := range w.cur {
		switch w.census.Classify(line) {
		case addr.TrueShared:
			t++
		case addr.FalseShared:
			f++
		default:
			n++
		}
	}
	mb := func(lines int) float64 {
		v := float64(lines) * float64(w.m.Geom.LineBytes) * float64(w.m.Scale) / (1 << 20)
		return v
	}
	tm, fm, nm := mb(t), mb(f), mb(n)
	if w.capMB > 0 {
		// Cap the total at capMB, clipping proportionally (the paper's plot
		// caps at 32 MB).
		tot := tm + fm + nm
		if tot > w.capMB {
			r := w.capMB / tot
			tm, fm, nm = tm*r, fm*r, nm*r
		}
	}
	w.sumTrue += tm
	w.sumFalse += fm
	w.sumNon += nm
	w.n++
	clear(w.cur)
}

func (w *windowAccumulator) finish() WindowStat {
	w.flush()
	st := WindowStat{WindowCycles: w.window, Windows: w.n}
	if w.n > 0 {
		st.TrueSharedMB = w.sumTrue / float64(w.n)
		st.FalseSharedMB = w.sumFalse / float64(w.n)
		st.NonSharedMB = w.sumNon / float64(w.n)
	}
	return st
}
