package profile

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/workload"
)

var m = workload.Machine{
	Chips:      4,
	SMsPerChip: 2,
	WarpsPerSM: 2,
	Geom:       memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4},
	Scale:      128,
}

func spec() workload.Spec {
	return workload.Spec{
		Name: "p", CTAs: 16, Repeats: 1,
		Kernels: []workload.Kernel{{
			Name:      "k",
			PrivateMB: 8, FalseMB: 4, TrueMB: 4,
			BlockLines: 8, ReusePriv: 2, ReuseFalse: 1, ReuseTrue: 2,
			PassesPriv: 1, PassesFalse: 2,
			TrueWindowMB: 1, WriteFrac: 0.1, ComputeGap: 1,
		}},
	}
}

func TestAnalyzeFootprintMatchesSpec(t *testing.T) {
	a, err := New(m, []int64{1000, 10000}, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Analyze(spec())
	if err != nil {
		t.Fatal(err)
	}
	k := spec().Kernels[0]
	want := k.PrivateMB + k.FalseMB + k.TrueMB
	if res.FootprintMB < want*0.8 || res.FootprintMB > want*1.25 {
		t.Errorf("footprint %.1f MB, want ~%.1f", res.FootprintMB, want)
	}
	if res.TrueSharedMB < k.TrueMB*0.8 || res.TrueSharedMB > k.TrueMB*1.25 {
		t.Errorf("true-shared %.1f MB, want ~%.1f", res.TrueSharedMB, k.TrueMB)
	}
	if res.FalseSharedMB < k.FalseMB*0.8 || res.FalseSharedMB > k.FalseMB*1.25 {
		t.Errorf("false-shared %.1f MB, want ~%.1f", res.FalseSharedMB, k.FalseMB)
	}
}

func TestFootprintMatchesAnalyze(t *testing.T) {
	a, err := New(m, []int64{1000}, 32)
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.Analyze(spec())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Footprint(m, spec())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Benchmark != full.Benchmark || fp.FootprintMB != full.FootprintMB ||
		fp.TrueSharedMB != full.TrueSharedMB || fp.FalseSharedMB != full.FalseSharedMB {
		t.Fatalf("census-only footprint %+v, Analyze's %+v", fp, full)
	}
	if len(fp.Windows) != 0 {
		t.Fatalf("census-only footprint measured %d windows", len(fp.Windows))
	}
}

func TestWindowMonotoneInSize(t *testing.T) {
	// Larger windows must see at least as much working set.
	a, _ := New(m, []int64{500, 5000, 50000}, 0)
	res, err := a.Analyze(spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	for i := 1; i < len(res.Windows); i++ {
		if res.Windows[i].TotalMB() < res.Windows[i-1].TotalMB()*0.95 {
			t.Errorf("window %d total %.2f < window %d total %.2f",
				res.Windows[i].WindowCycles, res.Windows[i].TotalMB(),
				res.Windows[i-1].WindowCycles, res.Windows[i-1].TotalMB())
		}
	}
}

func TestWindowBoundedByFootprint(t *testing.T) {
	a, _ := New(m, []int64{100000}, 0)
	res, err := a.Analyze(spec())
	if err != nil {
		t.Fatal(err)
	}
	w := res.Windows[0]
	if w.TotalMB() > res.FootprintMB*1.01 {
		t.Fatalf("window WS %.2f exceeds footprint %.2f", w.TotalMB(), res.FootprintMB)
	}
	if w.Windows <= 0 {
		t.Fatal("no windows measured")
	}
}

func TestCapApplies(t *testing.T) {
	capped, _ := New(m, []int64{100000}, 1.0) // 1 MB cap
	res, err := capped.Analyze(spec())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Windows[0].TotalMB(); got > 1.01 {
		t.Fatalf("capped WS %.2f exceeds 1 MB", got)
	}
}

func TestReplicatedMB(t *testing.T) {
	w := WindowStat{TrueSharedMB: 2, FalseSharedMB: 3, NonSharedMB: 5}
	if got := w.ReplicatedMB(4); got != 4*2+3+5 {
		t.Fatalf("ReplicatedMB = %v", got)
	}
	if w.TotalMB() != 10 {
		t.Fatalf("TotalMB = %v", w.TotalMB())
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(m, nil, 0); err == nil {
		t.Fatal("empty window list accepted")
	}
	bad := m
	bad.Chips = 0
	if _, err := New(bad, []int64{100}, 0); err == nil {
		t.Fatal("bad machine accepted")
	}
}

func TestAnalyzeRejectsEmptySpec(t *testing.T) {
	a, _ := New(m, []int64{100}, 0)
	if _, err := a.Analyze(workload.Spec{Name: "x"}); err == nil {
		t.Fatal("empty spec accepted")
	}
}
