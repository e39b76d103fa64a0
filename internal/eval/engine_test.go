package eval

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestSingleflightExactlyOnce hammers one (config, workload) key from many
// goroutines: the simulation must execute exactly once and every caller must
// receive the same *stats.Run. Run under -race this also exercises the
// memo's synchronization.
func TestSingleflightExactlyOnce(t *testing.T) {
	r := testRunner("BP")
	r.Parallelism = 8
	cfg := r.Base.WithOrg(llc.MemorySide)
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 32
	results := make([]*stats.Run, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var runs []*stats.Run
			runs, errs[i] = r.RunAll([]RunRequest{{Cfg: cfg, Spec: spec}})
			results[i] = runs[0]
		}(i)
	}
	wg.Wait()

	if got := r.Runs(); got != 1 {
		t.Fatalf("executed %d simulations for one key, want exactly 1", got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *stats.Run than caller 0", i)
		}
	}
	if results[0] == nil || results[0].Cycles == 0 {
		t.Fatal("shared result is empty")
	}
}

// TestParallelMatchesSerial is the determinism regression: the Figure 8
// matrix computed by the fully serial engine and by an 8-way parallel engine
// must agree cell by cell on the complete stats.Run, not just headline
// numbers. Each simulation is single-threaded and deterministic, so any
// divergence means the parallel engine leaked state between runs.
func TestParallelMatchesSerial(t *testing.T) {
	serial := testRunner("RN", "BP")
	serial.Parallelism = 1
	par := testRunner("RN", "BP")
	par.Parallelism = 8

	sres, err := serial.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.Fig8()
	if err != nil {
		t.Fatal(err)
	}

	if len(sres.Runs) != len(pres.Runs) {
		t.Fatalf("row count differs: %d vs %d", len(sres.Runs), len(pres.Runs))
	}
	for i := range sres.Runs {
		s, p := sres.Runs[i], pres.Runs[i]
		if s.Spec.Name != p.Spec.Name {
			t.Fatalf("row %d benchmark differs: %s vs %s", i, s.Spec.Name, p.Spec.Name)
		}
		for _, org := range llc.Orgs() {
			if !reflect.DeepEqual(s.ByOrg[org], p.ByOrg[org]) {
				t.Errorf("%s under %s: serial and parallel stats.Run differ\nserial:   %+v\nparallel: %+v",
					s.Spec.Name, org, s.ByOrg[org], p.ByOrg[org])
			}
		}
	}
}

// TestRunAllOrderAndDedup checks that RunAll returns results in request
// order and that duplicate keys in one set collapse to a single execution.
func TestRunAllOrderAndDedup(t *testing.T) {
	r := testRunner("RN", "BP")
	r.Parallelism = 4
	specRN, err := workload.ByName("RN")
	if err != nil {
		t.Fatal(err)
	}
	specBP, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	mem := r.Base.WithOrg(llc.MemorySide)
	sm := r.Base.WithOrg(llc.SMSide)

	runs, err := r.RunAll([]RunRequest{
		{Cfg: mem, Spec: specRN},
		{Cfg: sm, Spec: specBP},
		{Cfg: mem, Spec: specRN}, // duplicate of request 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d results, want 3", len(runs))
	}
	if runs[0].Benchmark != "RN" || runs[1].Benchmark != "BP" {
		t.Fatalf("results out of order: %s, %s", runs[0].Benchmark, runs[1].Benchmark)
	}
	if runs[0] != runs[2] {
		t.Fatal("duplicate request did not share the memoized result")
	}
	if got := r.Runs(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (one per distinct key)", got)
	}
}

// TestRunAllSharesEstimateProfiles runs a Fig-14 variant set at the estimate
// rung through RunAll: every cell's bytes must equal a lone backend.Run's,
// and the Runner's run-set must replay each spec once per distinct replay
// geometry (base, ½ and 2× LLC, 2 GPUs, sectored, 2 KB and 16 KB pages) —
// not once per org, bandwidth, memory interface or coherence protocol.
func TestRunAllSharesEstimateProfiles(t *testing.T) {
	r := &Runner{Base: gpu.ScaledConfig(), Benchmarks: []string{"RN", "BP", "GEMM"}, Parallelism: 4, Fidelity: "estimate"}
	var replays atomic.Int64
	r.runs.OnReplay = func() { replays.Add(1) }
	specs, err := r.specs()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []RunRequest
	for _, axis := range []Axis{AxisInterChipBW, AxisLLCCapacity, AxisMemory,
		AxisCoherence, AxisGPUCount, AxisSectored, AxisPageSize} {
		vs, err := axisVariants(axis)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			for _, spec := range specs {
				reqs = append(reqs, trio(v.apply(r.Base), spec)...)
			}
		}
	}
	runs, err := r.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range reqs {
		lone, err := backend.Run(q.Cfg, q.Spec, gpu.RunOpts{Fidelity: backend.Estimate})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(runs[i])
		want, _ := json.Marshal(lone)
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s: RunAll bytes differ from a lone backend.Run's", q.Spec.Name, q.Cfg.Org)
		}
	}
	if n, want := replays.Load(), int64(7*len(specs)); n != want {
		t.Fatalf("%d replays for %d cells, want %d: one per spec and replay geometry", n, len(reqs), want)
	}
}

// TestRunAllSharesTwins runs exact_sweep's 21 cells — the fast set and BFS
// under memory-side, SM-side and SAC on ScaledConfig with footprints, LLC
// and L1 divided by 4 — through RunAll with every memory-side cell requested
// first, at Parallelism 1 and then 2. SAC never switches on BP, DWT or GEMM
// there, so those three memory-side cells take their SAC twin's run: 18
// simulations, every result a lone run's bytes, and no deadlock though each
// twinned cell is requested before the cell it waits on.
func TestRunAllSharesTwins(t *testing.T) {
	cfg := gpu.ScaledConfig()
	cfg.WorkloadScale *= 4
	cfg.LLCBytesPerChip /= 4
	cfg.L1BytesPerSM /= 4
	var reqs []RunRequest
	for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC} {
		for _, name := range append(FastSet(), "BFS") {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, RunRequest{Cfg: cfg.WithOrg(org), Spec: spec})
		}
	}
	want := make([][]byte, len(reqs))
	for i, q := range reqs {
		lone, err := gpu.RunWith(q.Cfg, q.Spec, gpu.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(lone)
	}
	for _, par := range []int{1, 2} {
		r := &Runner{Base: cfg, Parallelism: par}
		var twins []string
		var mu sync.Mutex
		r.OnCellDone = func(c CellResult) {
			if c.Twin {
				mu.Lock()
				twins = append(twins, c.Benchmark+"/"+c.Org)
				mu.Unlock()
			}
		}
		runs, err := r.RunAll(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range reqs {
			if got, _ := json.Marshal(runs[i]); !bytes.Equal(got, want[i]) {
				t.Errorf("Parallelism %d: %s/%s differs from a lone run", par, q.Spec.Name, q.Cfg.Org)
			}
		}
		if n := r.Runs(); n != 18 || len(twins) != 3 {
			t.Errorf("Parallelism %d: %d simulations and twins %v, want 18 and BP, DWT and GEMM under memory-side", par, n, twins)
		}
	}
}
