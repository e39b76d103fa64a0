package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/gpu"
)

// keyOf resolves a request and returns its store key.
func keyOf(t *testing.T, req client.JobRequest) string {
	t.Helper()
	id, err := ResolveRequest(req, "")
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	return id.Key
}

// keyOfBody decodes a request body as both daemons do and resolves it.
func keyOfBody(t *testing.T, body string) string {
	t.Helper()
	var req client.JobRequest
	if err := client.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return keyOf(t, req)
}

// TestKeyCanonical is the store key's canonicality property over
// ResolveRequest: every spelling of one cell — a preset or the explicit
// config it names, fidelity "" or "exact", the org by name whatever the
// config's own Org says, any deadline, a fault plan's events in
// any order, and any JSON spelling of the body, inside the hand codec's subset
// or not — resolves to one key, and
// flipping any single hashed field (each config field, the benchmark, the
// org, the fault plan, the rung) resolves to another. A wrong cache hit is
// the worst failure a result service has.
func TestKeyCanonical(t *testing.T) {
	scaled := gpu.ScaledConfig()
	otherOrg := scaled.WithOrg(scaled.Org + 1)
	base := keyOf(t, client.JobRequest{Benchmark: "RN", Org: "SAC"})
	for _, req := range []client.JobRequest{
		{Benchmark: "RN", Org: "SAC", Preset: "scaled"},
		{Benchmark: "RN", Org: "SAC", Config: &scaled},
		{Benchmark: "RN", Org: "SAC", Config: &otherOrg, Fidelity: client.FidelityExact},
		{Benchmark: "RN", Org: "SAC", TimeoutMS: 60_000},
	} {
		if got := keyOf(t, req); got != base {
			t.Errorf("%+v keys %.12s, want %.12s", req, got, base)
		}
	}
	explicit, err := json.Marshal(client.JobRequest{Benchmark: "RN", Org: "SAC", Config: &scaled})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"benchmark":"RN","org":"SAC"}`,
		` { "org" : "SAC" , "benchmark" : "RN" , "fidelity" : "exact" } `,
		`{"benchmark":"R\u004e","org":"S\u0041C"}`,
		`{"Benchmark":"RN","ORG":"SAC","preset":"scaled"}`,
		string(explicit),
		string(client.AppendRequest(nil, &client.JobRequest{Benchmark: "RN", Org: "SAC", Config: &otherOrg})),
	} {
		if got := keyOfBody(t, body); got != base {
			t.Errorf("%s keys %.12s, want %.12s", body, got, base)
		}
	}

	seen := map[string]string{base: "base"}
	distinct := func(what string, req client.JobRequest) {
		t.Helper()
		k := keyOf(t, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s keys %.12s, the key of %s", what, k, prev)
		}
		seen[k] = what
	}
	distinct("benchmark", client.JobRequest{Benchmark: "BP", Org: "SAC"})
	distinct("org", client.JobRequest{Benchmark: "RN", Org: "memory-side"})
	distinct("fault plan", client.JobRequest{Benchmark: "RN", Org: "SAC", Faults: "dram:0.0@100*0.5"})
	distinct("two-event plan", client.JobRequest{Benchmark: "RN", Org: "SAC", Faults: "dram:0.0@100*0.5;xchip:1.ccw@50-90*0"})
	reordered := client.JobRequest{Benchmark: "RN", Org: "SAC", Faults: " xchip:1.ccw@50-90*-0; dram:0.0@100*0.5"}
	if got := keyOf(t, reordered); seen[got] != "two-event plan" {
		t.Errorf("%+v keys %.12s, not the key of its events in plan order", reordered, got)
	}
	distinct("estimate", client.JobRequest{Benchmark: "RN", Org: "SAC", Fidelity: client.FidelityEstimate})

	// Every config field but Org (the request's org overrides it, above),
	// flipped alone to the first nearby value that still validates.
	var fields func(v reflect.Value, path string)
	fields = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case name == "Org":
				continue
			case f.Kind() == reflect.Struct:
				fields(f, name+".")
				continue
			}
			was := reflect.ValueOf(f.Interface())
			var flips []any
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				n := f.Int()
				flips = []any{n * 2, n + 1, n / 2, n - 1}
			case reflect.Uint8:
				flips = []any{f.Uint() + 1}
			case reflect.Float64:
				x := f.Float()
				flips = []any{x * 2, x + 1, x / 2}
			case reflect.Bool:
				flips = []any{!f.Bool()}
			default:
				t.Fatalf("config field %s of kind %s has no flip", name, f.Kind())
			}
			flipped := false
			for _, v := range flips {
				f.Set(reflect.ValueOf(v).Convert(f.Type()))
				if cfg := scaled; !f.Equal(was) && cfg.Validate() == nil {
					distinct(name, client.JobRequest{Benchmark: "RN", Org: "SAC", Config: &cfg})
					flipped = true
					break
				}
			}
			f.Set(was)
			if !flipped {
				t.Errorf("config field %s: no nearby value validates; give it a flip", name)
			}
		}
	}
	fields(reflect.ValueOf(&scaled).Elem(), "")
}
