package backend

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestEstimateCoverage pins the estimate rung's declared coverage to what
// synthesize writes: over the 16 specs under every organization the rung
// covers, every numeric stats.Run field outside estimateFields is zero on
// every cell, and every field inside it is non-zero on at least one.
func TestEstimateCoverage(t *testing.T) {
	rt := reflect.TypeOf(stats.Run{})
	for _, name := range estimateFields {
		if _, ok := rt.FieldByName(name); !ok {
			t.Fatalf("estimateFields names %q, which stats.Run does not have", name)
		}
	}
	filled := map[string]bool{}
	cfg := gpu.ScaledConfig()
	for _, spec := range workload.Catalog() {
		for _, org := range estimateOrgs {
			st, err := Run(cfg.WithOrg(org), spec, gpu.RunOpts{Fidelity: Estimate})
			if err != nil {
				t.Fatalf("%s under %s: %v", spec.Name, org, err)
			}
			v := reflect.ValueOf(*st)
			for i := 0; i < rt.NumField(); i++ {
				f := rt.Field(i)
				if f.Type.Kind() == reflect.String || v.Field(i).IsZero() {
					continue
				}
				if !slices.Contains(estimateFields, f.Name) {
					t.Errorf("%s under %s: %s = %v, outside the estimate rung's coverage", spec.Name, org, f.Name, v.Field(i))
				}
				filled[f.Name] = true
			}
		}
	}
	for _, name := range estimateFields {
		if !filled[name] {
			t.Errorf("%s is declared covered but zero on every estimate cell", name)
		}
	}
}

// TestCovers: the exact rung covers everything; the estimate rung names
// the first organization it does not price before any field, and then the
// first field it does not fill; an unknown rung is not a coverage question.
func TestCovers(t *testing.T) {
	for _, f := range []string{"", Exact} {
		if err := Covers(f, llc.Orgs(), "RespBytes", "OccSamples"); err != nil {
			t.Errorf("exact rung %q: %v", f, err)
		}
	}
	if err := Covers(Estimate, estimateOrgs, estimateFields...); err != nil {
		t.Errorf("estimate rung refuses its own coverage: %v", err)
	}
	for _, c := range []struct {
		orgs   []llc.Org
		fields []string
		want   CoverageError
	}{
		{llc.Orgs(), []string{"RespBytes"}, CoverageError{Fidelity: Estimate, Org: "static"}},
		{[]llc.Org{llc.SAC, llc.Dynamic}, nil, CoverageError{Fidelity: Estimate, Org: "dynamic"}},
		{estimateOrgs, []string{"Cycles", "ReadLatencyN", "RespBytes"}, CoverageError{Fidelity: Estimate, Field: "ReadLatencyN"}},
	} {
		var ce *CoverageError
		if err := Covers(Estimate, c.orgs, c.fields...); !errors.As(err, &ce) || *ce != c.want {
			t.Errorf("Covers(%v, %v) = %v, want %+v", c.orgs, c.fields, err, c.want)
		}
	}
	var ce *CoverageError
	if err := Covers("sampled", nil); err == nil || errors.As(err, &ce) {
		t.Errorf("an unknown rung answered %v, want Normalize's error", err)
	}
}
