package gpu

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_runs.json from this build's runs")

const goldenRunsPath = "testdata/golden_runs.json"

// runStepped is RunWith under a fault plan with fast-forward off: every
// cycle is stepped.
func runStepped(cfg Config, spec workload.Spec, plan *fault.Plan) (*stats.Run, error) {
	sys, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := sys.InjectFaults(plan); err != nil {
		return nil, err
	}
	sys.noFF = true
	return sys.Run()
}

// TestGoldenRuns pins the cycle loop's output absolutely: json.Marshal of the
// stats.Run of every organization on tinyConfig/tinyWorkload — plain, under
// mixedPlan's faults, and under hardware coherence — must equal the recorded
// bytes. Every run checks the activity-word invariants after every step, and
// is repeated with every cycle stepped: fast-forward never skips a cycle
// with a due event, so the two agree in every field but Skipped.
// A change that means to alter simulated behaviour regenerates the file with
// `go test ./internal/gpu -run TestGoldenRuns -update` and says why.
func TestGoldenRuns(t *testing.T) {
	golden := map[string]json.RawMessage{}
	if !*update {
		raw, err := os.ReadFile(goldenRunsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	spec := tinyWorkload()
	plan := mixedPlan(t)
	for _, org := range llc.Orgs() {
		hw := tinyConfig().WithOrg(org)
		hw.Coherence = coherence.Hardware
		t.Run(org.String(), func(t *testing.T) {
			for _, v := range []struct {
				name string
				cfg  Config
				plan *fault.Plan
			}{
				{"plain", tinyConfig().WithOrg(org), nil},
				{"faulted", tinyConfig().WithOrg(org), plan},
				{"hwcoh", hw, nil},
			} {
				key := org.String() + "/" + v.name
				t.Run(v.name, func(t *testing.T) {
					r, err := runFaultsChecked(t, v.cfg, spec, v.plan)
					if err != nil {
						t.Fatal(err)
					}
					stepped, err := runStepped(v.cfg, spec, v.plan)
					if err != nil {
						t.Fatal(err)
					}
					if stepped.Skipped != 0 {
						t.Fatalf("noFF run skipped %d cycles", stepped.Skipped)
					}
					if r.Skipped == 0 {
						t.Error("fast-forward skipped nothing: the comparison below pins no skip")
					}
					ff := *r
					ff.Skipped = 0
					if !reflect.DeepEqual(&ff, stepped) {
						t.Errorf("fast-forward changed simulation outcomes:\nff      %+v\nstepped %+v", ff, *stepped)
					}
					got, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					if *update {
						golden[key] = got
						return
					}
					var want bytes.Buffer
					if err := json.Compact(&want, golden[key]); err != nil {
						t.Fatalf("no usable golden entry: %v", err)
					}
					if !bytes.Equal(got, want.Bytes()) {
						t.Errorf("stats.Run diverged from the golden:\ngot  %s\nwant %s", got, want.Bytes())
					}
				})
			}
		})
	}
	if *update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
