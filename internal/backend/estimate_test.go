package backend

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/estimate_straddle.json from this build's runs")

const straddleGoldenPath = "testdata/estimate_straddle.json"

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
