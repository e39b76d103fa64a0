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
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/estimate_straddle.json and testdata/estimate_universe.json from this build's runs")

const (
	straddleGoldenPath = "testdata/estimate_straddle.json"
	universeGoldenPath = "testdata/estimate_universe.json"
)

// straddleReplay is a trace replay whose pages sit on both sides of the
// page table's dense bound (page 1<<22): a small synthetic spec's streams,
// every line shifted so that private, falsely-shared and truly-shared
// regions all cross the bound.
func straddleReplay(t *testing.T, m workload.Machine) *trace.Replay {
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
	shift := (uint64(1)<<22 - mid) * lpp

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Chips: int32(m.Chips), SMsPerChip: int32(m.SMsPerChip), WarpsPerSM: int32(m.WarpsPerSM),
		LineBytes: int32(m.Geom.LineBytes), PageBytes: int32(m.Geom.PageBytes),
		Scale: int32(m.Scale), Kernels: int32(spec.KernelCount()), Name: spec.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	var below, above int
	for ki := 0; ki < spec.KernelCount(); ki++ {
		for chip := 0; chip < m.Chips; chip++ {
			for smi := 0; smi < m.SMsPerChip; smi++ {
				for warp := 0; warp < m.WarpsPerSM; warp++ {
					var accs []trace.Access
					s := spec.NewStream(m, ki, chip, smi, warp)
					for a, ok := s.Next(); ok; a, ok = s.Next() {
						a.Line += shift
						if a.Line/lpp < 1<<22 {
							below++
						} else {
							above++
						}
						accs = append(accs, a)
					}
					if err := w.WarpStream(accs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if below == 0 || above == 0 {
		t.Fatalf("trace does not straddle the bound: %d accesses below, %d above", below, above)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewReplay(tr)
}

// TestEstimateStraddleGolden pins the estimate rung byte-for-byte on the
// input class no synthetic spec produces: first-touch homes for pages on
// both sides of the dense bound in one run. `-update` rewrites the golden —
// only for a change that means to alter the rung's answers.
func TestEstimateStraddleGolden(t *testing.T) {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.WorkloadScale = 16
	rep := straddleReplay(t, cfg.Machine())

	got := map[string]*stats.Run{}
	for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC} {
		run, err := Run(cfg.WithOrg(org), rep, gpu.RunOpts{Fidelity: Estimate})
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
// warmed the scratch pool, an estimate cell allocates only its profiler,
// page table and result record, not its streams or tag models.
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
	if n := testing.AllocsPerRun(20, run); n > 32 {
		t.Fatalf("estimate cell allocates %v times in steady state, want <= 32", n)
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
