package backend

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/workload"
)

// replayInvariant perturbs each field of the replay-invariant set to another
// valid value. Its keys are the fields profileKeyOf zeroes, by path.
var replayInvariant = map[string]func(*gpu.Config){
	"Org":                    func(c *gpu.Config) { c.Org = llc.SMSide },
	"ClusterBW":              func(c *gpu.Config) { c.ClusterBW *= 3 },
	"SliceBW":                func(c *gpu.Config) { c.SliceBW *= 3 },
	"RingLinkBW":             func(c *gpu.Config) { c.RingLinkBW *= 3 },
	"ChannelBW":              func(c *gpu.Config) { c.ChannelBW *= 3 },
	"SMsPerCluster":          func(c *gpu.Config) { c.SMsPerCluster = 1 },
	"SACOpts.Theta":          func(c *gpu.Config) { c.SACOpts.Theta = 0.3 },
	"SACOpts.DisableLSU":     func(c *gpu.Config) { c.SACOpts.DisableLSU = true },
	"SACOpts.ReprofileEvery": func(c *gpu.Config) { c.SACOpts.ReprofileEvery = 100_000 },
	"L1Latency":              func(c *gpu.Config) { c.L1Latency += 13 },
	"LLCLatency":             func(c *gpu.Config) { c.LLCLatency += 17 },
	"DRAMLatency":            func(c *gpu.Config) { c.DRAMLatency += 19 },
	"RingHopLatency":         func(c *gpu.Config) { c.RingHopLatency += 23 },
	"Coherence":              func(c *gpu.Config) { c.Coherence = coherence.Hardware },
	"DynamicEpoch":           func(c *gpu.Config) { c.DynamicEpoch += 1000 },
	"MSHRPerSlice":           func(c *gpu.Config) { c.MSHRPerSlice += 3 },
	"QueueBound":             func(c *gpu.Config) { c.QueueBound += 5 },
	"MaxCycles":              func(c *gpu.Config) { c.MaxCycles += 1_000_000 },
	"WatchdogCycles":         func(c *gpu.Config) { c.WatchdogCycles += 100_000 },
}

// profileBytes is the binary encoding of spec's profile on cfg.
func profileBytes(t *testing.T, cfg gpu.Config, spec workload.Spec) []byte {
	t.Helper()
	if err := checkEstimate(cfg, gpu.RunOpts{}); err != nil {
		t.Fatal(err)
	}
	sh, sc := takeScratch(cfg)
	defer giveScratch(sh, sc)
	kps, err := profile(cfg, spec, gpu.RunOpts{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, kps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leafFields calls f with the path and value of every scalar field of v.
func leafFields(v reflect.Value, path string, f func(string, reflect.Value)) {
	if v.Kind() != reflect.Struct {
		f(path, v)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		leafFields(v.Field(i), name, f)
	}
}

// TestProfileInvariantFields is the authority over the replay-invariant set:
// perturbing any field of it must leave every catalog workload's profile
// byte-identical, and profileKeyOf must zero exactly that set, so two
// configurations share a profile key only when they replay alike.
func TestProfileInvariantFields(t *testing.T) {
	base := gpu.ScaledConfig().WithOrg(llc.SAC)
	baseKey := profileKeyOf(base, "x")
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
		_, inSet := replayInvariant[path]
		if inSet {
			listed++
		}
		if same := profileKeyOf(c, "x") == baseKey; same != inSet {
			t.Errorf("%s: profile key unchanged=%v, replay-invariant=%v", path, same, inSet)
		}
	})
	if listed != len(replayInvariant) {
		t.Fatalf("%d of the %d replay-invariant paths name a field of gpu.Config", listed, len(replayInvariant))
	}

	for _, spec := range workload.Catalog() {
		want := profileBytes(t, base, spec)
		for path, mutate := range replayInvariant {
			c := base
			mutate(&c)
			if c == base {
				t.Fatalf("%s: the perturbation changes nothing", path)
			}
			if !bytes.Equal(profileBytes(t, c, spec), want) {
				t.Errorf("%s: perturbing %s changed the profile", spec.Name, path)
			}
		}
	}
}

// waitForWaiter blocks until some goroutine waits in RunSet.profile's select
// on a groupmate's replay.
func waitForWaiter(t *testing.T) {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "(*RunSet).profile") {
				return
			}
		}
	}
	t.Fatal("no groupmate waits on the open replay")
}

// TestRunSetCancelNotShared: a replay whose context is canceled fails its
// own cell only. A groupmate — waiting on it, or arriving after it — replays
// for itself and answers a lone Run's bytes.
func TestRunSetCancelNotShared(t *testing.T) {
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.ScaledConfig()
	lone, err := Run(cfg.WithOrg(llc.SMSide), spec, gpu.RunOpts{Fidelity: Estimate})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(lone)

	ctx, cancel := context.WithCancel(context.Background())
	mateDone := make(chan error, 1)
	var replays atomic.Int64
	var rs RunSet
	rs.OnReplay = func() {
		if replays.Add(1) > 1 {
			return
		}
		// The canceled cell leads: start its groupmate, which finds the
		// replay open and waits on it, then cancel the leader before its
		// first kernel.
		go func() {
			run, err := rs.Run(cfg.WithOrg(llc.SMSide), spec, gpu.RunOpts{Fidelity: Estimate})
			if err == nil {
				if b, _ := json.Marshal(run); !bytes.Equal(b, want) {
					err = errors.New("groupmate bytes differ from a lone Run's")
				}
			}
			mateDone <- err
		}()
		waitForWaiter(t)
		cancel()
	}
	if _, err := rs.Run(cfg.WithOrg(llc.SAC), spec, gpu.RunOpts{Fidelity: Estimate, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: err %v, want context.Canceled", err)
	}
	if err := <-mateDone; err != nil {
		t.Fatalf("groupmate of a canceled replay: %v", err)
	}
	run, err := rs.Run(cfg.WithOrg(llc.SMSide), spec, gpu.RunOpts{Fidelity: Estimate})
	if err != nil {
		t.Fatalf("cell after a canceled replay: %v", err)
	}
	if b, _ := json.Marshal(run); !bytes.Equal(b, want) {
		t.Fatal("cell after a canceled replay: bytes differ from a lone Run's")
	}
	if n := replays.Load(); n != 2 {
		t.Fatalf("%d replays, want 2: the canceled one and its groupmate's own", n)
	}
}

// TestRunSetSharesTwins: an exact SAC cell that stayed memory-side publishes
// its twin, and the memory-side cell of the same config, workload and fault
// plan takes it once, with a lone Run's bytes. A SAC run that fails shares
// nothing, and a memory-side cell of another identity, or one observed,
// takes nothing.
func TestRunSetSharesTwins(t *testing.T) {
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.ScaledConfig()
	cfg.WorkloadScale *= 4
	cfg.LLCBytesPerChip /= 4
	cfg.L1BytesPerSM /= 4
	lone, err := Run(cfg.WithOrg(llc.MemorySide), spec, gpu.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(lone)
	cell := func(rs *RunSet, cfg gpu.Config, o gpu.RunOpts) ([]byte, bool) {
		t.Helper()
		run, twin, err := rs.RunCell(cfg, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(run)
		return b, twin
	}

	var rs RunSet
	if _, twin := cell(&rs, cfg.WithOrg(llc.SAC), gpu.RunOpts{}); twin {
		t.Fatal("a SAC cell reported taking a twin")
	}
	other := cfg.WithOrg(llc.MemorySide)
	other.MaxCycles++
	if _, twin := cell(&rs, other, gpu.RunOpts{}); twin {
		t.Fatal("a memory-side cell of another config took the twin")
	}
	if _, twin := cell(&rs, cfg.WithOrg(llc.MemorySide), gpu.RunOpts{Observer: &obs.Observer{Metrics: obs.NewRegistry()}}); twin {
		t.Fatal("an observed memory-side cell took the twin: its series would be empty")
	}
	got, twin := cell(&rs, cfg.WithOrg(llc.MemorySide), gpu.RunOpts{Fidelity: Exact})
	if !twin || !bytes.Equal(got, want) {
		t.Fatalf("memory-side cell: twin %v, bytes equal to a lone Run's %v; want both", twin, bytes.Equal(got, want))
	}
	if got, twin := cell(&rs, cfg.WithOrg(llc.MemorySide), gpu.RunOpts{}); twin || !bytes.Equal(got, want) {
		t.Fatalf("second memory-side cell: twin %v, bytes equal %v; want a simulation with a lone Run's bytes", twin, bytes.Equal(got, want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var failed RunSet
	if _, _, err := failed.RunCell(cfg.WithOrg(llc.SAC), spec, gpu.RunOpts{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SAC cell: err %v, want context.Canceled", err)
	}
	if _, twin := cell(&failed, cfg.WithOrg(llc.MemorySide), gpu.RunOpts{}); twin {
		t.Fatal("a canceled SAC run published a twin")
	}
}
