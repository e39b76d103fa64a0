package gpu

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/coherence"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runWorkers runs spec on cfg with a fixed chip-worker count.
func runWorkers(t *testing.T, cfg Config, spec workload.Spec, workers int) *stats.Run {
	t.Helper()
	return runWorkersEpoch(t, cfg, spec, workers, -1)
}

// epochKs is the fusion matrix the determinism tests sweep: unlimited (what
// New sets), fusion off, and a small cap. Fusion changes how many barriers a
// parallel run takes, never what it computes.
var epochKs = []int{-1, 0, 4}

// runWorkersEpoch is runWorkers with the cap on consecutive fused ring epochs
// set to epochK. Every run checks the activity-word invariants after every
// step (checkActivity), so the determinism sweep — serial and at every worker
// count, under make race too — is also the invariant sweep.
func runWorkersEpoch(t *testing.T, cfg Config, spec workload.Spec, workers, epochK int) *stats.Run {
	t.Helper()
	sys, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWorkers(workers)
	sys.epochK = epochK
	sys.afterStep = func() { sys.checkActivity(t) }
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("Run(%s, workers=%d, epochK=%d): %v", cfg.Org, workers, epochK, err)
	}
	return r
}

// TestChipWorkerDeterminism is the core contract of the parallel stepper:
// for every organization, a run with any chip-worker count produces a
// stats.Run deeply equal to the serial run — including latency sums, ring
// bytes, reconfiguration counts, and per-kernel records — with ring-epoch
// fusion unlimited, off and capped. Worker counts beyond the chip count
// exercise the clamp.
func TestChipWorkerDeterminism(t *testing.T) {
	spec := tinyWorkload()
	for _, org := range llc.Orgs() {
		t.Run(org.String(), func(t *testing.T) {
			cfg := tinyConfig().WithOrg(org)
			serial := runWorkers(t, cfg, spec, 1)
			for _, k := range epochKs {
				for _, w := range []int{2, 3, 4, 8} {
					got := runWorkersEpoch(t, cfg, spec, w, k)
					if !reflect.DeepEqual(serial, got) {
						t.Fatalf("workers=%d epochK=%d diverged from serial:\nserial %+v\ngot    %+v", w, k, serial, got)
					}
				}
			}
		})
	}
}

// Hardware coherence mutates remote directories inline, so the system must
// force itself serial no matter what was requested — and still match.
func TestChipWorkerHardwareCoherenceForcedSerial(t *testing.T) {
	cfg := tinyConfig()
	cfg.Coherence = coherence.Hardware
	spec := tinyWorkload()
	serial := runWorkers(t, cfg, spec, 1)
	got := runWorkers(t, cfg, spec, 4)
	if !reflect.DeepEqual(serial, got) {
		t.Fatal("hardware-coherence run diverged across worker counts")
	}

	sys, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWorkers(4)
	if w := sys.effectiveWorkers(); w != 1 {
		t.Fatalf("effectiveWorkers = %d under hardware coherence, want 1", w)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cfg := tinyConfig()
	sys, err := New(cfg, tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	sys.SetWorkers(2)
	if w := sys.effectiveWorkers(); w != 2 {
		t.Fatalf("explicit 2 workers resolved to %d", w)
	}
	sys.SetWorkers(1000)
	if w := sys.effectiveWorkers(); w != cfg.Chips {
		t.Fatalf("oversized request resolved to %d, want chip count %d", w, cfg.Chips)
	}
	sys.SetWorkers(0)
	if w := sys.effectiveWorkers(); w != 1 {
		t.Fatalf("0 workers resolved to %d, want 1 (serial)", w)
	}
}

// TestDefaultStepperIsSerial pins that a System nobody called SetWorkers on
// starts no worker group — it steps every chip on the calling goroutine —
// while an explicit 2 still starts one.
func TestDefaultStepperIsSerial(t *testing.T) {
	for _, tc := range []struct {
		workers   int // 0 = SetWorkers never called
		wantGroup bool
	}{{0, false}, {2, true}} {
		sys, err := New(tinyConfig(), tinyWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if tc.workers != 0 {
			sys.SetWorkers(tc.workers)
		}
		// Every cycle runs the early or the fused chip task; with a group
		// attached they run on its workers, hence the atomic.
		var sawGroup atomic.Bool
		watch := func(task func(ci int)) func(ci int) {
			return func(ci int) {
				if sys.group != nil {
					sawGroup.Store(true)
				}
				task(ci)
			}
		}
		sys.earlyFn, sys.fusedFn = watch(sys.phaseEarly), watch(sys.phaseFused)
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if sawGroup.Load() != tc.wantGroup {
			t.Errorf("workers=%d: worker group live during the run = %v, want %v", tc.workers, sawGroup.Load(), tc.wantGroup)
		}
	}
}

// The worker group must execute every chip index exactly once per run call,
// for any worker count, including workers == 1 (inline coordinator only)
// and workers that don't divide the chip count.
func TestWorkerGroupCoversAllChips(t *testing.T) {
	const chips = 7
	for _, workers := range []int{1, 2, 3, 5, 7} {
		var hits [chips]atomic.Int32
		g := newWorkerGroup(workers, chips)
		const rounds = 50
		for round := 0; round < rounds; round++ {
			g.run(func(ci int) { hits[ci].Add(1) })
		}
		g.close()
		for ci := range hits {
			if n := hits[ci].Load(); n != rounds {
				t.Fatalf("workers=%d: chip %d ticked %d times, want %d", workers, ci, n, rounds)
			}
		}
	}
}
