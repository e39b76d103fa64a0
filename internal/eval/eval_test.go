package eval

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/llc"
)

// testRunner shrinks the machine and workloads so eval tests run in
// milliseconds while exercising the full experiment plumbing.
func testRunner(benchmarks ...string) *Runner {
	cfg := gpu.ScaledConfig()
	cfg.SMsPerChip = 4
	cfg.WarpsPerSM = 4
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 512
	cfg.SACOpts.WindowCycles = 1500
	if len(benchmarks) == 0 {
		benchmarks = []string{"RN", "BP"}
	}
	return &Runner{Base: cfg, Benchmarks: benchmarks}
}

func TestFig1ProducesAllGroups(t *testing.T) {
	r := testRunner()
	f, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"SP", "MP", "ALL"} {
		m, ok := f.Groups[g]
		if !ok {
			t.Fatalf("missing group %s", g)
		}
		for _, org := range llc.Orgs() {
			agg := m[org]
			if agg.HMSpeedup <= 0 {
				t.Fatalf("%s/%s speedup %v", g, org, agg.HMSpeedup)
			}
			if agg.MissRate < 0 || agg.MissRate > 1 {
				t.Fatalf("%s/%s miss rate %v", g, org, agg.MissRate)
			}
		}
		if m[llc.MemorySide].HMSpeedup != 1 {
			t.Fatalf("memory-side baseline speedup = %v", m[llc.MemorySide].HMSpeedup)
		}
	}
	var buf bytes.Buffer
	f.Print(&buf)
	if !strings.Contains(buf.String(), "Fig 1a") || !strings.Contains(buf.String(), "Fig 1c") {
		t.Fatal("Print output incomplete")
	}
}

// TestEstimateRefusesUncovered: at the estimate rung, the experiments that
// read an organization or a field the rung does not model refuse with a
// *backend.CoverageError before any work: no cell runs, and eabval builds
// no gpu.System (a refusal allocates only its error). The experiments inside
// the rung's coverage still answer.
func TestEstimateRefusesUncovered(t *testing.T) {
	r := testRunner()
	r.Fidelity = "estimate"
	for name, run := range map[string]func() error{
		"Fig1":        func() error { _, err := r.Fig1(); return err },
		"Fig8":        func() error { _, err := r.Fig8(); return err },
		"Fig9":        func() error { _, err := r.Fig9(); return err },
		"Fig10":       func() error { _, err := r.Fig10(); return err },
		"Headline":    func() error { _, err := r.Headline(); return err },
		"ValidateEAB": func() error { _, err := r.ValidateEAB(); return err },
	} {
		var ce *backend.CoverageError
		if err := run(); !errors.As(err, &ce) || ce.Fidelity != "estimate" {
			t.Errorf("%s at the estimate rung returned %v, want a coverage error", name, err)
		}
		if allocs := testing.AllocsPerRun(1, func() { _ = run() }); allocs > 10 {
			t.Errorf("%s refused after %.0f allocations, want no work", name, allocs)
		}
	}
	if n := r.Runs(); n != 0 {
		t.Fatalf("refused experiments ran %d cells", n)
	}
	if _, err := r.Fig12(); err != nil {
		t.Fatalf("Fig 12 is inside the estimate rung's coverage: %v", err)
	}
	if _, err := r.AblateLSU(); err != nil {
		t.Fatalf("the ablations are inside the estimate rung's coverage: %v", err)
	}
}

func TestMemoizationSharesRuns(t *testing.T) {
	r := testRunner()
	var cells atomic.Int64 // executions: a twin executes without simulating
	r.OnCellDone = func(CellResult) { cells.Add(1) }
	if _, err := r.Fig1(); err != nil {
		t.Fatal(err)
	}
	n := cells.Load()
	if n != 2*5 {
		t.Fatalf("Fig1 executed %d cells, want 10", n)
	}
	// Fig8, Fig9, Fig10 and Headline reuse the same matrix.
	if _, err := r.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig9(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Headline(); err != nil {
		t.Fatal(err)
	}
	if cells.Load() != n {
		t.Fatalf("matrix experiments re-ran: %d -> %d", n, cells.Load())
	}
}

func TestFig8Rows(t *testing.T) {
	r := testRunner()
	f, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("rows = %d", len(f.Runs))
	}
	for _, br := range f.Runs {
		if br.Speedup(llc.MemorySide) != 1 {
			t.Fatalf("%s baseline speedup != 1", br.Spec.Name)
		}
		if br.Speedup(llc.SAC) <= 0 {
			t.Fatalf("%s SAC speedup %v", br.Spec.Name, br.Speedup(llc.SAC))
		}
	}
	var buf bytes.Buffer
	f.Print(&buf)
	if !strings.Contains(buf.String(), "HM-ALL") {
		t.Fatal("missing HM rows")
	}
}

func TestFig9OccupancyShape(t *testing.T) {
	r := testRunner()
	f, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range f.Runs {
		if occ := br.ByOrg[llc.MemorySide].RemoteOccupancy(); occ != 0 {
			t.Fatalf("%s memory-side remote occupancy %v", br.Spec.Name, occ)
		}
		if occ := br.ByOrg[llc.SAC].RemoteOccupancy(); occ < 0 || occ > 1 {
			t.Fatalf("occupancy out of range")
		}
	}
	var buf bytes.Buffer
	f.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}

func TestFig10BreakdownSums(t *testing.T) {
	r := testRunner()
	f, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range f.Runs {
		for org, run := range br.ByOrg {
			bd := run.RespBreakdown()
			sum := bd[1] + bd[2] + bd[3] + bd[4]
			if tot := run.EffectiveLLCBandwidth(); tot > 0 && (sum < tot*0.99 || sum > tot*1.01) {
				t.Fatalf("%s/%s breakdown %v != total %v", br.Spec.Name, org, sum, tot)
			}
		}
	}
	var buf bytes.Buffer
	f.Print(&buf)
	if !strings.Contains(buf.String(), "remoteMem") {
		t.Fatal("missing breakdown columns")
	}
}

func TestTable4Measured(t *testing.T) {
	r := testRunner("RN")
	res, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Name != "RN" || row.Suite != "Tango" || row.Group != "SP" || row.CTAs != 512 || row.Kernels != 1 {
		t.Fatalf("row %+v", row)
	}
	// Measured full-scale footprint should be within 2x of Table 4 even at
	// the coarse test scale (rounding to pages dominates at scale 512).
	if row.FootprintMB < row.Paper.FootprintMB/2 || row.FootprintMB > row.Paper.FootprintMB*2 {
		t.Fatalf("footprint %.1f vs paper %.1f", row.FootprintMB, row.Paper.FootprintMB)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "fp(paper)") {
		t.Fatal("print incomplete")
	}
}

func TestFig11Windows(t *testing.T) {
	r := testRunner("RN")
	res, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Windows) != 3 {
		t.Fatalf("rows/windows = %d/%d", len(res.Rows), len(res.Rows[0].Windows))
	}
	if res.LLCMB <= 0 {
		t.Fatal("LLC capacity line missing")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "replicated") {
		t.Fatal("print incomplete")
	}
}

func TestFig12PerKernel(t *testing.T) {
	r := testRunner()
	res, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KernelNames) != 4 { // 2 kernels x 2 repeats
		t.Fatalf("kernels = %d", len(res.KernelNames))
	}
	sm, sac := res.Speedups()
	if len(sm) != 4 || len(sac) != 4 {
		t.Fatal("speedup series wrong length")
	}
	for _, org := range res.SACOrg {
		if org != "memory-side" && org != "SM-side" {
			t.Fatalf("bad SAC choice %q", org)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "bfs-k1") {
		t.Fatal("print incomplete")
	}
}

func TestFig13Sweep(t *testing.T) {
	r := testRunner("RN", "BP")
	res, err := r.Fig13([]float64{1, 0.5}, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	seenLLCScaled := false
	for _, p := range res.Points {
		if p.SMSide <= 0 || p.SAC <= 0 {
			t.Fatalf("bad point %+v", p)
		}
		if p.LLCScaled {
			seenLLCScaled = true
		}
	}
	// RN is a fixed-input benchmark: its non-unit factors scale the LLC.
	if !seenLLCScaled {
		t.Fatal("RN sweep did not scale the LLC")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "LLC/x") {
		t.Fatal("print incomplete")
	}
}

func TestFig14Axes(t *testing.T) {
	r := testRunner("RN")
	res, err := r.Fig14([]Axis{AxisCoherence, AxisGPUCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d: %+v", len(res.Points), res.Points)
	}
	baselines := 0
	for _, p := range res.Points {
		if p.Baseline {
			baselines++
		}
		if p.SMSide <= 0 || p.SAC <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	if baselines != 2 {
		t.Fatalf("baselines = %d", baselines)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "hardware") {
		t.Fatal("print incomplete")
	}
}

func TestFig14UnknownAxis(t *testing.T) {
	r := testRunner("RN")
	if _, err := r.Fig14([]Axis{"bogus"}); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

func TestHeadlineComputes(t *testing.T) {
	r := testRunner()
	h, err := r.Headline()
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.Static, llc.Dynamic} {
		if h.AvgOver[org] <= 0 || h.MaxOver[org] < h.AvgOver[org]*0.5 {
			t.Fatalf("headline %s: avg %v max %v", org, h.AvgOver[org], h.MaxOver[org])
		}
	}
	var buf bytes.Buffer
	h.Print(&buf)
	if !strings.Contains(buf.String(), "SAC vs") {
		t.Fatal("print incomplete")
	}
}

func TestAblations(t *testing.T) {
	r := testRunner("RN")
	for _, run := range []func() (*AblationResult, error){
		r.AblateTheta, r.AblateWindow, r.AblateLSU, r.AblateDecisionCache, r.AblateReprofile,
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) < 2 {
			t.Fatalf("axis %s: %d points", res.Axis, len(res.Points))
		}
		baseline := 0
		for _, p := range res.Points {
			if p.Baseline {
				baseline++
			}
			if p.HMSpeedup <= 0 || p.OracleFrac <= 0 {
				t.Fatalf("axis %s: bad point %+v", res.Axis, p)
			}
		}
		if baseline != 1 {
			t.Fatalf("axis %s: %d baselines", res.Axis, baseline)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		if buf.Len() == 0 {
			t.Fatal("empty ablation print")
		}
	}
}

// TestAblateWindowBaselineIsThePlainRun: at the paper's 2,000-cycle window
// the variants are a third, one and four times it, and the asterisked one is
// the configured window itself, so its SAC cells are the plain SAC runs
// instead of cells of their own.
func TestAblateWindowBaselineIsThePlainRun(t *testing.T) {
	r := testRunner("RN", "BP")
	r.Fidelity = "estimate"
	r.Base.SACOpts.WindowCycles = 2000
	res, err := r.AblateWindow()
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range res.Points {
		if p.Baseline {
			p.Name += "*"
		}
		labels = append(labels, p.Name)
	}
	if got, want := strings.Join(labels, " "), "window=666 window=2000* window=8000"; got != want {
		t.Fatalf("variants %q, want %q", got, want)
	}
	specs, err := r.specs()
	if err != nil {
		t.Fatal(err)
	}
	var plain []RunRequest
	for _, spec := range specs {
		plain = append(plain, RunRequest{Cfg: r.Base.WithOrg(llc.SAC), Spec: spec})
	}
	before := r.Runs()
	if _, err := r.RunAll(plain); err != nil {
		t.Fatal(err)
	}
	if n := r.Runs() - before; n != 0 {
		t.Fatalf("the plain SAC runs simulated %d cells the baseline variant did not share", n)
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := testRunner("NOPE")
	if _, err := r.Fig1(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFastSetIsValid(t *testing.T) {
	for _, n := range FastSet() {
		found := false
		for _, c := range []string{"RN", "AN", "SN", "CFD", "BFS", "3DC", "BS", "BT",
			"SRAD", "GEMM", "LUD", "STEN", "3MM", "BP", "DWT", "NN"} {
			if n == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("FastSet contains unknown benchmark %q", n)
		}
	}
}

func TestValidateEAB(t *testing.T) {
	r := testRunner("RN", "BP")
	v, err := r.ValidateEAB()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 2 {
		t.Fatalf("rows = %d", len(v.Rows))
	}
	if v.Accuracy < 0 || v.Accuracy > 1 {
		t.Fatalf("accuracy %v", v.Accuracy)
	}
	for _, row := range v.Rows {
		if row.PredictedMemEAB <= 0 || row.MeasuredMemBW <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
	}
	var buf bytes.Buffer
	v.Print(&buf)
	if !strings.Contains(buf.String(), "decision accuracy") {
		t.Fatal("print incomplete")
	}
}

func TestPearson(t *testing.T) {
	if got := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); got < 0.999 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); got > -0.999 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if pearson([]float64{1}, []float64{1}) != 0 || pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestBarRendering(t *testing.T) {
	b := bar(2, 4, 8) // half-filled, 1.0 marker at index 2
	if len(b) != 8 {
		t.Fatalf("width %d", len(b))
	}
	if b[0] != '#' || b[3] != '#' {
		t.Fatalf("fill wrong: %q", b)
	}
	if b[2] != '+' { // marker inside the filled region
		t.Fatalf("marker wrong: %q", b)
	}
	if b[7] != ' ' {
		t.Fatalf("tail wrong: %q", b)
	}
	empty := bar(0.5, 4, 8) // marker beyond the fill (1.0 at index 2)
	if empty[2] != '|' {
		t.Fatalf("unfilled marker wrong: %q", empty)
	}
	if got := bar(1, 0, 4); len(got) != 4 {
		t.Fatalf("degenerate max: %q", got)
	}
}
