package gpu

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/workload"
)

// conserved reports whether every request the machine ever allocated is back
// in its pool: checkConserved without a *testing.T, for other goroutines.
func (s *System) conserved() error {
	if free, made := int64(s.pool.Free()), s.pool.Allocs; free != made {
		return fmt.Errorf("%d requests allocated, %d back in the pool", made, free)
	}
	return nil
}

// watchHandBacks wraps handBack for the rest of the test: every machine
// handed back is first passed to seen.
func watchHandBacks(t *testing.T, seen func(*System)) {
	orig := handBack
	handBack = func(shape Config, s *System) {
		seen(s)
		orig(shape, s)
	}
	t.Cleanup(func() { handBack = orig })
}

// freshRun runs cfg on a machine built for it alone.
func freshRun(t *testing.T, cfg Config, spec Workload) string {
	t.Helper()
	sys, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return runJSON(t, r)
}

// rearmCell is one run of the re-arm differential.
type rearmCell struct {
	name string
	cfg  Config
	spec workload.Spec
}

// rearmCells are TestGoldenRuns' plain and hardware-coherence cells and
// exact_sweep's 21: two machine shapes, every organization and both
// coherence protocols taking turns on them.
func rearmCells(t *testing.T) []rearmCell {
	var cells []rearmCell
	for _, org := range llc.Orgs() {
		hw := tinyConfig().WithOrg(org)
		hw.Coherence = coherence.Hardware
		cells = append(cells,
			rearmCell{"tiny/" + org.String(), tinyConfig().WithOrg(org), tinyWorkload()},
			rearmCell{"tiny/hwcoh/" + org.String(), hw, tinyWorkload()})
	}
	for _, name := range []string{"RN", "SN", "BS", "GEMM", "BP", "DWT", "BFS"} {
		for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC} {
			cells = append(cells, rearmCell{"sweep/" + name + "/" + org.String(), sweepScaleConfig().WithOrg(org), mustSpec(t, name)})
		}
	}
	return cells
}

// TestRearmDifferential holds arm to "exactly the state a fresh machine
// has": two goroutines run the re-arm cells through RunWithTwin, each in
// its own seeded order, so the pooled machines of the two shapes pass from
// organization to organization, protocol to protocol and benchmark to
// benchmark. Every result must equal a fresh machine's bytes, and every
// machine handed back must hold all its requests.
func TestRearmDifferential(t *testing.T) {
	cells := rearmCells(t)
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = freshRun(t, c.cfg, c.spec)
	}
	var mu sync.Mutex
	handedBack := 0
	watchHandBacks(t, func(s *System) {
		err := s.conserved()
		mu.Lock()
		defer mu.Unlock()
		handedBack++
		if err != nil {
			t.Errorf("%s/%s handed back: %v", s.spec.SourceName(), s.cfg.Org, err)
		}
	})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewPCG(uint64(g)+1, 46)).Perm(len(cells)) {
				c := cells[i]
				r, _, err := RunWithTwin(c.cfg, c.spec, RunOpts{})
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if got := runJSON(t, r); got != want[i] {
					t.Errorf("goroutine %d, %s: a re-armed machine differs from a fresh one\ngot  %s\nwant %s", g, c.name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	if handedBack != 2*len(cells) {
		t.Errorf("%d of %d clean plain runs handed their machine back", handedBack, 2*len(cells))
	}
}

// panicWorkload is a workload whose streams cannot be built.
type panicWorkload struct{ workload.Spec }

func (panicWorkload) Stream(workload.Machine, int, int, int, int) workload.AccessStream {
	panic("no stream")
}

// TestHandBackRule: a run hands its machine back only when it was plain and
// finished cleanly. One that errors (past MaxCycles), is canceled, trips the
// watchdog, panics, or carries a fault plan or an observer keeps it.
func TestHandBackRule(t *testing.T) {
	handedBack := 0
	watchHandBacks(t, func(*System) { handedBack++ })
	cfg, spec := tinyConfig(), tinyWorkload()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	short := cfg
	short.MaxCycles = 100
	wedged := cfg
	wedged.WatchdogCycles = 1
	for _, c := range []struct {
		name    string
		cfg     Config
		w       Workload
		o       RunOpts
		fails   string // what the run's error says, "" for none
		handsBk bool
	}{
		{"plain", cfg, spec, RunOpts{}, "", true},
		{"plain with a live context", cfg, spec, RunOpts{Ctx: context.Background()}, "", true},
		{"past MaxCycles", short, spec, RunOpts{}, "exceeded", false},
		{"canceled", cfg, spec, RunOpts{Ctx: canceled}, "canceled", false},
		{"watchdog", wedged, spec, RunOpts{}, "stalled", false},
		{"panic", cfg, panicWorkload{spec}, RunOpts{}, "no stream", false},
		{"fault plan", cfg, spec, RunOpts{Faults: mixedPlan(t)}, "", false},
		{"observer", cfg, spec, RunOpts{Observer: &obs.Observer{Metrics: obs.NewRegistry()}}, "", false},
	} {
		before := handedBack
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("%v", p)
				}
			}()
			_, _, err = RunWithTwin(c.cfg, c.w, c.o)
			return err
		}()
		switch {
		case c.fails == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.fails != "" && (err == nil || !strings.Contains(err.Error(), c.fails)):
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.fails)
		}
		if got := handedBack > before; got != c.handsBk {
			t.Errorf("%s: handed its machine back %v, want %v", c.name, got, c.handsBk)
		}
		if machines.out != 0 {
			t.Errorf("%s: the pool counts %d machines still out, want 0: a run it does not keep must drop its machine", c.name, machines.out)
		}
	}
}

// armed is the armed set (shapeKeyOf), each field with a perturbation that
// keeps the configuration valid and, but for the three fields the cycle
// loop reads only to stop a run or print it, changes some run's bytes.
var armed = map[string]func(*Config){
	"Org":                    func(c *Config) { c.Org = (c.Org + 1) % llc.Org(len(llc.Orgs())) },
	"Coherence":              func(c *Config) { c.Coherence ^= coherence.Hardware },
	"SACOpts.WindowCycles":   func(c *Config) { c.SACOpts.WindowCycles /= 2 },
	"SACOpts.Theta":          func(c *Config) { c.SACOpts.Theta = 1e6 },
	"SACOpts.DisableLSU":     func(c *Config) { c.SACOpts.DisableLSU = !c.SACOpts.DisableLSU },
	"SACOpts.ReprofileEvery": func(c *Config) { c.SACOpts.ReprofileEvery = 20_000 },
	"DynamicEpoch":           func(c *Config) { c.DynamicEpoch /= 4 },
	"ClusterBW":              func(c *Config) { c.ClusterBW /= 4 },
	"SliceBW":                func(c *Config) { c.SliceBW /= 4 },
	"RingLinkBW":             func(c *Config) { c.RingLinkBW *= 2 },
	"ChannelBW":              func(c *Config) { c.ChannelBW *= 2 },
	"L1Latency":              func(c *Config) { c.L1Latency++ },
	"LLCLatency":             func(c *Config) { c.LLCLatency *= 2 },
	"DRAMLatency":            func(c *Config) { c.DRAMLatency *= 2 },
	"RingHopLatency":         func(c *Config) { c.RingHopLatency *= 2 },
	"WorkloadScale":          func(c *Config) { c.WorkloadScale *= 2 },
	"MaxCycles":              func(c *Config) { c.MaxCycles++ },
	"WatchdogCycles":         func(c *Config) { c.WatchdogCycles++ },
}

// inert are the armed fields no run's bytes read.
var inert = map[string]bool{"L1Latency": true, "MaxCycles": true, "WatchdogCycles": true}

// leafFields calls fn with the dotted path and value of every non-struct
// field under v.
func leafFields(v reflect.Value, prefix string, fn func(string, reflect.Value)) {
	for i := range v.NumField() {
		f := v.Field(i)
		path := prefix + v.Type().Field(i).Name
		if f.Kind() == reflect.Struct {
			leafFields(f, path+".", fn)
			continue
		}
		fn(path, f)
	}
}

// TestArmInvariantFields is the exact rung's TestProfileInvariantFields:
// shapeKeyOf must zero exactly the armed set, and one machine re-armed
// between a base configuration and each perturbation of an armed field must
// answer fresh machines' bytes both ways. The bases are SAC and Dynamic,
// the two organizations with controllers, so each perturbation moves some
// run's bytes (inert fields aside) and a field arm failed to apply would
// show.
func TestArmInvariantFields(t *testing.T) {
	base := tinyConfig()
	baseKey := shapeKeyOf(base)
	listed := 0
	leafFields(reflect.ValueOf(&base).Elem(), "", func(path string, _ reflect.Value) {
		c := base
		leafFields(reflect.ValueOf(&c).Elem(), "", func(p string, v reflect.Value) {
			if p != path {
				return
			}
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float() + 1)
			default:
				t.Fatalf("%s: no perturbation for kind %s", p, v.Kind())
			}
		})
		_, inSet := armed[path]
		if inSet {
			listed++
		}
		if same := shapeKeyOf(c) == baseKey; same != inSet {
			t.Errorf("%s: shape key unchanged=%v, armed=%v", path, same, inSet)
		}
	})
	if listed != len(armed) {
		t.Fatalf("%d of the %d armed paths name a field of Config", listed, len(armed))
	}

	spec := tinyWorkload()
	spec.Repeats = 2
	moved := map[string]bool{}
	for _, org := range []llc.Org{llc.SAC, llc.Dynamic} {
		b := base.WithOrg(org)
		wantBase := freshRun(t, b, spec)
		m := build(b)
		for path, mutate := range armed {
			c := b
			mutate(&c)
			if c == b {
				t.Fatalf("%s: the perturbation changes nothing", path)
			}
			want := freshRun(t, c, spec)
			moved[path] = moved[path] || want != wantBase
			for _, step := range []struct {
				cfg  Config
				want string
			}{{c, want}, {b, wantBase}} {
				m.arm(step.cfg, spec)
				r, err := m.Run()
				if err != nil {
					t.Fatalf("%s under %s: %v", path, org, err)
				}
				if got := runJSON(t, r); got != step.want {
					t.Errorf("%s under %s: a re-armed machine differs from a fresh one\ngot  %s\nwant %s", path, org, got, step.want)
				}
			}
		}
	}
	for path := range armed {
		if moved[path] == inert[path] {
			t.Errorf("%s: perturbing it moved a run's bytes %v, want %v", path, moved[path], !inert[path])
		}
	}
}

// TestExactSteadyStateAllocs is the exact rung's TestEstimateSteadyStateAllocs:
// a re-armed run of SN allocates only its answer — the run record and its
// kernel records — however many requests, streams and queue entries the
// cycle loop needs. A fresh machine of this shape allocates hundreds of
// times before its first cycle.
func TestExactSteadyStateAllocs(t *testing.T) {
	cfg := sweepScaleConfig().WithOrg(llc.SMSide)
	var w Workload = mustSpec(t, "SN")
	run := func() {
		if _, _, err := RunWithTwin(cfg, w, RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(5, run)
	t.Logf("%v allocs per re-armed run", n)
	if n > 2 {
		t.Fatalf("a re-armed exact run allocates %v times, want <= 2 (its run record and kernel records)", n)
	}
}

// TestPooledMachineOutlivesGC: a pooled machine waits for the next run of
// its shape whatever happens in between — two collections, and a run on a
// fresh goroutine, which the scheduler may put on another P. Each run then
// allocates only its answer, not a machine. The harness allocates on its
// own (the goroutine, and the runtime's cleanup after each collection), so
// the pin is on the runs' allocations beyond those of the same harness
// around an empty body.
func TestPooledMachineOutlivesGC(t *testing.T) {
	cfg := sweepScaleConfig().WithOrg(llc.SMSide)
	var w Workload = mustSpec(t, "SN")
	errc := make(chan error)
	perRun := func(body func() error) float64 {
		run := func() {
			go func() { errc <- body() }()
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	harness := perRun(func() error { return nil })
	n := perRun(func() error {
		_, _, err := RunWithTwin(cfg, w, RunOpts{})
		return err
	})
	t.Logf("%v allocs per run, %v of them the harness's", n, harness)
	if n-harness > 4 {
		t.Fatalf("a run after two collections on a fresh goroutine allocates %v times beyond the harness's %v, want <= 4", n-harness, harness)
	}
}
