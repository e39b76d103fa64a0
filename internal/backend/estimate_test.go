package backend

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/estimate_straddle.json and testdata/estimate_universe.json from this build's runs")

const (
	straddleGoldenPath = "testdata/estimate_straddle.json"
	universeGoldenPath = "testdata/estimate_universe.json"
)

// straddle is a workload whose pages sit on both sides of the page table's
// dense bound (page 1<<22): a small synthetic spec's streams, every line
// shifted so that private, falsely-shared and truly-shared regions all
// cross the bound.
type straddle struct {
	spec  workload.Spec
	shift uint64 // lines added to every access
}

func newStraddle(t *testing.T, m workload.Machine) straddle {
	t.Helper()
	spec := workload.Spec{
		Name: "straddle", CTAs: 8, Repeats: 2,
		Kernels: []workload.Kernel{{
			Name: "k", PrivateMB: 4, FalseMB: 2, TrueMB: 2,
			BlockLines: 8, ReusePriv: 2, ReuseTrue: 2, SharersTrue: 2,
			PassesFalse: 2, TrueWindowMB: 0.5,
			WriteFrac: 0.2, ComputeGap: 2,
		}},
	}
	l := spec.LayoutFor(0, m)
	lpp := uint64(m.Geom.LinesPerPage())
	// Centre the spec's line space on the bound: the falsely-shared region
	// (the middle one) starts half its length below page 1<<22.
	mid := (l.FalseBase + uint64(l.FalseLines)/2) / lpp
	w := straddle{spec: spec, shift: (uint64(1)<<22 - mid) * lpp}

	var below, above int
	for ki := 0; ki < w.KernelCount(); ki++ {
		for i := 0; i < m.TotalWarps(); i++ {
			s := w.Stream(m, ki, i/m.WarpsPerChip(), i/m.WarpsPerSM%m.SMsPerChip, i%m.WarpsPerSM)
			for a, ok := s.Next(); ok; a, ok = s.Next() {
				if a.Line/lpp < 1<<22 {
					below++
				} else {
					above++
				}
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("workload does not straddle the bound: %d accesses below, %d above", below, above)
	}
	return w
}

func (w straddle) SourceName() string      { return w.spec.Name }
func (w straddle) KernelCount() int        { return w.spec.KernelCount() }
func (w straddle) KernelName(i int) string { return fmt.Sprintf("k%d", i) }

func (w straddle) Stream(m workload.Machine, ki, chip, sm, warp int) workload.AccessStream {
	return &shiftedStream{s: w.spec.NewStream(m, ki, chip, sm, warp), by: w.shift}
}

// shiftedStream plays s with every line moved up by by.
type shiftedStream struct {
	s  *workload.Stream
	by uint64
}

func (s *shiftedStream) Next() (workload.Access, bool) {
	a, ok := s.s.Next()
	a.Line += s.by
	return a, ok
}

func (s *shiftedStream) Len() int64 { return s.s.Len() }

// TestEstimateStraddleGolden pins the estimate rung byte-for-byte on the
// input class no synthetic spec produces: first-touch homes for pages on
// both sides of the dense bound in one run. `-update` rewrites the golden —
// only for a change that means to alter the rung's answers.
func TestEstimateStraddleGolden(t *testing.T) {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.WorkloadScale = 16
	w := newStraddle(t, cfg.Machine())

	got := map[string]*stats.Run{}
	for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC} {
		run, err := Run(cfg.WithOrg(org), w, gpu.RunOpts{Fidelity: Estimate})
		if err != nil {
			t.Fatalf("%s: %v", org, err)
		}
		got[org.String()] = run
	}
	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *update {
		if err := os.WriteFile(straddleGoldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(straddleGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("estimate rung diverged from %s:\ngot:\n%s\nwant:\n%s", straddleGoldenPath, enc, want)
	}
}

// TestEstimateSteadyStateAllocs pins the pooled replay: once a call has
// warmed the scratch pool, an estimate cell allocates only its page table
// and result record, not its profiler, streams, cache models or kernel
// profiles (4 allocations).
func TestEstimateSteadyStateAllocs(t *testing.T) {
	spec, err := workload.ByName("RN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.ScaledConfig().WithOrg(llc.SAC)
	run := func() {
		if _, err := Run(cfg, spec, gpu.RunOpts{Fidelity: Estimate}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(20, run)
	t.Logf("%v allocs per cell", n)
	if n > 5 {
		t.Fatalf("estimate cell allocates %v times in steady state, want <= 5", n)
	}
}

// TestEstimateFixedOrgsIgnoreTheta: memory-side and SM-side route one way
// whatever SAC would decide, so θ — which moves only SAC's decision — moves
// no byte of their results. θ = 1e6 keeps every SAC kernel memory-side, so
// the two values flip the decision of every spec whose SAC estimate picks
// SM-side on some kernel; the test requires some spec to flip.
func TestEstimateFixedOrgsIgnoreTheta(t *testing.T) {
	estimate := func(cfg gpu.Config, spec workload.Spec) *stats.Run {
		t.Helper()
		run, err := Run(cfg, spec, gpu.RunOpts{Fidelity: Estimate})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	flipped := 0
	for _, spec := range workload.Catalog() {
		cfg := gpu.ScaledConfig()
		high := cfg
		high.SACOpts.Theta = 1e6
		if a, b := estimate(cfg.WithOrg(llc.SAC), spec), estimate(high.WithOrg(llc.SAC), spec); !reflect.DeepEqual(a.Kernels, b.Kernels) {
			flipped++
		}
		for _, org := range []llc.Org{llc.MemorySide, llc.SMSide} {
			a, _ := json.Marshal(estimate(cfg.WithOrg(org), spec))
			b, _ := json.Marshal(estimate(high.WithOrg(org), spec))
			if !bytes.Equal(a, b) {
				t.Errorf("%s %s: θ moved the estimate\nθ default %s\nθ 1e6     %s", spec.Name, org, a, b)
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no spec's SAC decision flips between the two θ values: the test pins nothing")
	}
}

// universeCell is one cell of bench's estimate_sweep universe.
type universeCell struct {
	name string
	spec workload.Spec
	cfg  gpu.Config
}

// estimateUniverse is the 256-cell universe bench's estimate_sweep runs:
// the 16 Table-4 specs × {SAC, memory-side, SM-side, static} × workload
// scale {256, 384, 512, 640} on ScaledConfig.
func estimateUniverse() []universeCell {
	var cells []universeCell
	for _, spec := range workload.Catalog() {
		for _, org := range []llc.Org{llc.SAC, llc.MemorySide, llc.SMSide, llc.Static} {
			for _, scale := range []int{256, 384, 512, 640} {
				cfg := gpu.ScaledConfig().WithOrg(org)
				cfg.WorkloadScale = scale
				cells = append(cells, universeCell{fmt.Sprintf("%s/%s/%d", spec.Name, org, scale), spec, cfg})
			}
		}
	}
	return cells
}

// cellSum is the sha256 of the cell's json.Marshal, the bytes the store and
// the wire carry.
func cellSum(c universeCell) (string, error) {
	run, err := Run(c.cfg, c.spec, gpu.RunOpts{Fidelity: Estimate})
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(run)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestEstimateUniverseGolden pins the estimate rung's bytes on every cell of
// the estimate_sweep universe, replayed once in order and once shuffled
// across 4 goroutines: any state one call leaves behind for the next (a
// pooled scratch not reset to what a fresh allocation holds) moves a sum.
// `-update` rewrites the golden — only for a change that means to alter the
// rung's answers.
func TestEstimateUniverseGolden(t *testing.T) {
	cells := estimateUniverse()
	got := make(map[string]string, len(cells))
	for _, c := range cells {
		sum, err := cellSum(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = sum
	}
	if *update {
		enc, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(universeGoldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(universeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("%s holds %d cells, the universe has %d", universeGoldenPath, len(want), len(cells))
	}
	for _, c := range cells {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: in-order sum %s, golden %s", c.name, got[c.name], want[c.name])
		}
	}

	order := rand.New(rand.NewSource(25)).Perm(len(cells))
	sums := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < len(order); j += 4 {
				i := order[j]
				sums[i], errs[i] = cellSum(cells[i])
			}
		}(g)
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		if sums[i] != want[c.name] {
			t.Errorf("%s: shuffled concurrent sum %s, golden %s", c.name, sums[i], want[c.name])
		}
	}
}
