package gpu

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// runObserved runs the tiny SAC workload with an observer attached, with
// idle fast-forwarding either live or disabled (noFF steps every cycle).
func runObserved(t *testing.T, window int64, noFF bool) (*stats.Run, *obs.Observer) {
	t.Helper()
	sys, err := New(tinyConfig().WithOrg(llc.SAC), tinyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	sys.noFF = noFF
	ob := obs.New(window)
	sys.AttachObserver(ob, window)
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, ob
}

// sameSamples compares two registry snapshots family by family. Families in
// skip (the skipped-cycles counter, which differs by construction between a
// stepped and a fast-forwarded run) are excluded.
func sameSamples(t *testing.T, a, b *obs.Registry, skip map[string]bool) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot family counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Name != sb[i].Name {
			t.Fatalf("family %d name mismatch: %q vs %q", i, sa[i].Name, sb[i].Name)
		}
		if skip[sa[i].Name] {
			continue
		}
		if !reflect.DeepEqual(sa[i], sb[i]) {
			t.Errorf("family %q diverged:\nstepped      %+v\nfast-forward %+v",
				sa[i].Name, sa[i], sb[i])
		}
	}
}

// TestFastForwardObsSamplesExact: every metrics-window boundary inside a
// skipped idle span must still fire at its exact cycle, so the sample series
// of a fast-forwarded run is identical to one that steps every cycle. With a
// 1-cycle window every cycle is a boundary, which forbids skipping entirely;
// a wider window lets spans be skipped and checks that boundary samples and
// trace counter tracks still land on the same cycles with the same values.
func TestFastForwardObsSamplesExact(t *testing.T) {
	for _, window := range []int64{1, 64} {
		ffRun, ffObs := runObserved(t, window, false)
		stRun, stObs := runObserved(t, window, true)

		// Simulated outcomes are bit-identical; only the Skipped accounting
		// may differ (and with a 1-cycle window not even that: every cycle is
		// a window boundary, so nothing can be skipped).
		if stRun.Skipped != 0 {
			t.Fatalf("window %d: noFF run skipped %d cycles", window, stRun.Skipped)
		}
		if window == 1 && ffRun.Skipped != 0 {
			t.Fatalf("1-cycle window let fast-forward skip %d cycles", ffRun.Skipped)
		}
		na, nb := *ffRun, *stRun
		na.Skipped, nb.Skipped = 0, 0
		if !reflect.DeepEqual(&na, &nb) {
			t.Fatalf("window %d: fast-forward changed simulation outcomes:\nff      %+v\nstepped %+v",
				window, na, nb)
		}

		// Trace events (kernel spans, SAC decisions, per-window counter
		// tracks) must be byte-identical: same cycles, same values.
		var ffTrace, stTrace bytes.Buffer
		if err := ffObs.Trace.WriteJSON(&ffTrace); err != nil {
			t.Fatal(err)
		}
		if err := stObs.Trace.WriteJSON(&stTrace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ffTrace.Bytes(), stTrace.Bytes()) {
			t.Errorf("window %d: trace diverged between stepped and fast-forwarded runs", window)
		}

		// Final registry state matches except the skipped-cycles counter.
		skip := map[string]bool{"sacsim_skipped_cycles_total": true}
		if window == 1 {
			skip = nil // nothing skippable, even that counter agrees
		}
		sameSamples(t, stObs.Metrics, ffObs.Metrics, skip)
	}
}

// TestFastForwardSkipsIdleSpans guards the point of the machinery: on a gappy
// workload with no 1-cycle observer cap, fast-forward must actually skip.
func TestFastForwardSkipsIdleSpans(t *testing.T) {
	spec := tinyWorkload()
	spec.Kernels[0].ComputeGap = 200
	r := mustRun(t, tinyConfig().WithOrg(llc.MemorySide), spec)
	if r.Skipped == 0 {
		t.Fatal("gappy workload fast-forwarded nothing")
	}
	if r.Skipped >= r.Cycles {
		t.Fatalf("skipped %d of %d cycles", r.Skipped, r.Cycles)
	}
}
