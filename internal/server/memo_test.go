package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/gpu"
	"repro/internal/jobs"
	"repro/internal/llc"
	"repro/internal/obs"
	"repro/internal/workload"
)

func testResolver(defaultFidelity string) *resolver {
	reg := obs.NewRegistry()
	return newResolver(defaultFidelity, reg.Counter("hits", ""), reg.Counter("misses", ""))
}

// occupied counts the identities r remembers.
func occupied(r *resolver) int {
	n := 0
	for _, set := range r.sets {
		for _, used := range set.used {
			if used {
				n++
			}
		}
	}
	return n
}

const testPlan = "xchip:0.cw@0-5000*0.5"

// sameResolve fails unless the resolver answered req as ResolveRequest does.
func sameResolve(t *testing.T, what string, req client.JobRequest, got *jobs.Identity, err error, want *jobs.Identity, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s %+v: error %v, ResolveRequest says %v", what, req, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s %+v: error %q, ResolveRequest says %q", what, req, err, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s %+v:\n got %+v\nwant %+v", what, req, got, want)
	}
}

// configLeaves returns every non-struct field of the struct v, depth first
// in declaration order.
func configLeaves(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Struct {
			out = append(out, configLeaves(f)...)
		} else {
			out = append(out, f)
		}
	}
	return out
}

// TestConfigBitsCoverEveryField sets each leaf of a zero gpu.Config alone,
// by reflection: every one must break sameConfigBits with the zero config
// and move appendConfigBits' bytes, to bytes no other leaf writes, at
// exactly configBitsLen; and every float leaf set to −0 must break
// sameConfigBits while == still holds. A field either misses would let two
// configs with different store keys share one memoized identity.
func TestConfigBitsCoverEveryField(t *testing.T) {
	var zero gpu.Config
	n := len(configLeaves(reflect.ValueOf(&zero).Elem()))
	if n*8 != configBitsLen {
		t.Fatalf("gpu.Config has %d leaf fields, configBitsLen covers %d", n, configBitsLen/8)
	}
	if !sameConfigBits(&zero, &zero) {
		t.Fatal("a config does not have its own bits")
	}
	seen := map[string]int{string(appendConfigBits(nil, &zero)): -1}
	floats := 0
	for k := 0; k < n; k++ {
		var c gpu.Config
		leaf := configLeaves(reflect.ValueOf(&c).Elem())[k]
		switch leaf.Kind() {
		case reflect.Int, reflect.Int64:
			leaf.SetInt(int64(k + 1))
		case reflect.Uint8:
			leaf.SetUint(uint64(k + 1))
		case reflect.Bool:
			leaf.SetBool(true)
		case reflect.Float64:
			floats++
			leaf.SetFloat(math.Copysign(0, -1))
			if c != zero || sameConfigBits(&c, &zero) || sameConfigBits(&zero, &c) {
				t.Fatalf("leaf %d: −0 is == 0 but must not have its bits", k)
			}
			if bytes.Equal(appendConfigBits(nil, &c), appendConfigBits(nil, &zero)) {
				t.Fatalf("leaf %d: −0 appends the bits of 0", k)
			}
			leaf.SetFloat(float64(k) + 0.375)
		default:
			t.Fatalf("leaf %d: no test value for kind %s", k, leaf.Kind())
		}
		if sameConfigBits(&c, &zero) {
			t.Fatalf("leaf %d: sameConfigBits ignores it", k)
		}
		b := appendConfigBits(nil, &c)
		if len(b) != configBitsLen {
			t.Fatalf("leaf %d: %d bytes, want %d", k, len(b), configBitsLen)
		}
		if prev, dup := seen[string(b)]; dup {
			t.Fatalf("leaf %d writes the same bytes as leaf %d", k, prev)
		}
		seen[string(b)] = k
	}
	if floats == 0 {
		t.Fatal("no float leaves found")
	}
}

// TestResolverMatchesResolveRequest is the memo's differential test: over
// the catalog × every org × {preset, explicit config, explicit config naming
// another org, θ 0, θ −0} × every rung spelling × {no plan, a plan}, at
// either daemon default, a resolver answers exactly as ResolveRequest on the miss that
// fills it and on the hit that reads it back. Refusals (estimate with a
// plan) are answered afresh each time, never remembered.
func TestResolverMatchesResolveRequest(t *testing.T) {
	scaled := gpu.ScaledConfig()
	otherOrg := scaled.WithOrg(llc.SMSide)
	// θ 0 and −0 are == but key apart: an == memo would hand one the other's.
	zero, negZero := scaled, scaled
	zero.SACOpts.Theta, negZero.SACOpts.Theta = 0, math.Copysign(0, -1)
	if keyOf(t, client.JobRequest{Benchmark: "BP", Org: "SAC", Config: &zero}) ==
		keyOf(t, client.JobRequest{Benchmark: "BP", Org: "SAC", Config: &negZero}) {
		t.Fatal("θ 0 and −0 share a store key")
	}
	for _, def := range []string{"", client.FidelityEstimate} {
		r := testResolver(def)
		var ok, refused float64
		for _, b := range workload.Names() {
			for _, org := range llc.Orgs() {
				for _, cfg := range []*gpu.Config{nil, &scaled, &otherOrg, &zero, &negZero} {
					for _, fid := range []string{"", client.FidelityExact, client.FidelityEstimate} {
						for _, faults := range []string{"", testPlan} {
							req := client.JobRequest{Benchmark: b, Org: org.String(), Config: cfg, Fidelity: fid, Faults: faults}
							want, wantErr := ResolveRequest(req, def)
							for _, pass := range []string{"miss", "hit"} {
								got, err := r.Resolve(req)
								sameResolve(t, pass, req, got, err, want, wantErr)
							}
							if wantErr != nil {
								refused++
							} else {
								ok++
							}
						}
					}
				}
			}
		}
		// Every valid request's second pass hits; its first may hit too, on
		// a twin spelled alike (the config's own Org, the default rung).
		if refused == 0 || r.hits.Value() < ok || r.hits.Value()+r.misses.Value() != 2*(ok+refused) {
			t.Fatalf("default %q: %v hits, %v misses over %v valid and %v refused requests",
				def, r.hits.Value(), r.misses.Value(), ok, refused)
		}
	}
}

// TestResolverChecksEveryJob: once a valid twin is remembered, a bad
// timeout_ms, or a priority the request type lacks, is still a 400, while a
// good timeout_ms, which is not part of the key, hits.
func TestResolverChecksEveryJob(t *testing.T) {
	s, _, url := testDaemonURL(t, Config{})
	twin := `"benchmark":"BP","org":"SAC","fidelity":"estimate"`
	post := func(job string, code int) {
		t.Helper()
		serve(t, "POST", url+"/v1/jobs:batch", `{"jobs":[{`+job+`}]}`, code)
	}
	post(twin, 202)
	for _, bad := range []string{
		`"priority":"urgent"`,
		`"timeout_ms":-1`,
		fmt.Sprintf(`"timeout_ms":%d`, maxTimeoutMS+1),
	} {
		post(twin+","+bad, http.StatusBadRequest)
	}
	hits := s.m.identHits.Value()
	post(twin+`,"timeout_ms":60000`, 202)
	if got := s.m.identHits.Value(); got != hits+1 {
		t.Fatalf("a twin with a deadline: %v identity hits, want %v", got, hits+1)
	}

	r := testResolver("")
	req := client.JobRequest{Benchmark: "BP", Org: "SAC"}
	if _, err := r.Resolve(req); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []client.JobRequest{
		{Benchmark: "BP", Org: "SAC", TimeoutMS: -1},
		{Benchmark: "BP", Org: "SAC", TimeoutMS: maxTimeoutMS + 1},
		{Benchmark: "BP", Org: "SAC", Fidelity: client.FidelityEstimate, Faults: testPlan},
		{Benchmark: "BP", Org: "LRU", Config: ptr(tinyConfig())},
	} {
		want, wantErr := ResolveRequest(bad, "")
		got, err := r.Resolve(bad)
		sameResolve(t, "bad job", bad, got, err, want, wantErr)
	}
	if n := occupied(r); n != 1 {
		t.Fatalf("the memo holds %d identities, want only the valid twin", n)
	}
}

// TestMemoMatchesEveryField compares keys with an entry directly, past the
// hash that keeps most differing keys apart anyway: a request differing from
// the entry's in any one identity field, θ's sign included, must not match
// it, while one differing only in the config's own Org, which resolve
// overrides, must.
func TestMemoMatchesEveryField(t *testing.T) {
	cfg := tinyConfig()
	base := client.JobRequest{Benchmark: "BP", Org: "SAC", Preset: "scaled", Config: &cfg, Faults: testPlan}
	ident, err := ResolveRequest(base, "")
	if err != nil {
		t.Fatal(err)
	}
	var k memoKey
	if err := k.setRequest(&base, ""); err != nil {
		t.Fatal(err)
	}
	e := k.entry(ident)
	negTheta, otherScale, ownOrg := cfg, cfg, cfg.WithOrg(llc.MemorySide)
	negTheta.SACOpts.Theta = math.Copysign(0, -1)
	otherScale.WorkloadScale++
	for _, c := range []struct {
		edit func(*client.JobRequest)
		want bool
	}{
		{func(*client.JobRequest) {}, true},
		{func(r *client.JobRequest) { r.Config = &ownOrg }, true},
		{func(r *client.JobRequest) { r.Benchmark = "RN" }, false},
		{func(r *client.JobRequest) { r.Org = "SM-side" }, false},
		{func(r *client.JobRequest) { r.Preset = "" }, false},
		{func(r *client.JobRequest) { r.Config = nil }, false},
		{func(r *client.JobRequest) { r.Config = &negTheta }, false},
		{func(r *client.JobRequest) { r.Config = &otherScale }, false},
		{func(r *client.JobRequest) { r.Faults = "" }, false},
		{func(r *client.JobRequest) { r.Fidelity = client.FidelityExact }, false},
	} {
		req := base
		c.edit(&req)
		var kk memoKey
		if err := kk.setRequest(&req, req.Fidelity); err != nil {
			t.Fatal(err)
		}
		if got := e.matches(&kk); got != c.want {
			t.Errorf("%+v (config %+v): matches %v, want %v", req, *req.Config, got, c.want)
		}
	}
}

// cloneIdentity copies what a remembered identity shares across jobs.
func cloneIdentity(id jobs.Identity) jobs.Identity {
	id.Spec.Kernels = slices.Clone(id.Spec.Kernels)
	if id.Plan != nil {
		p := *id.Plan
		p.Events = slices.Clone(p.Events)
		id.Plan = &p
	}
	return id
}

// TestMemoSharedIdentityStaysUntouched runs concurrent jobs of one
// remembered cell — exact with a fault plan, and estimate — through the
// daemon's executor: every hit must hand out the memo's own *Identity, each
// job must hold that pointer, and the identity with its Spec.Kernels array
// and *fault.Plan must come out as it went in (and -race must see no write).
func TestMemoSharedIdentityStaysUntouched(t *testing.T) {
	s := New(Config{})
	r := testResolver("")
	exact := tinyRequest("BP", "SAC")
	exact.Faults = testPlan
	estimate := tinyRequest("BP", "SAC")
	estimate.Fidelity = client.FidelityEstimate
	for _, req := range []client.JobRequest{exact, estimate} {
		first, err := r.Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		before := cloneIdentity(*first)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, err := r.Resolve(req)
				if err != nil {
					t.Error(err)
					return
				}
				if id != first {
					t.Error("a hit does not hand out the remembered identity")
				}
				j := jobs.NewJob(id)
				if j.Identity != first {
					t.Error("a job does not hold the remembered identity")
				}
				if out := s.execute(context.Background(), j); out.Err != nil {
					t.Error(out.Err)
				}
			}()
		}
		wg.Wait()
		after, err := r.Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if after != first || !reflect.DeepEqual(*first, before) {
			t.Fatalf("%s: a job wrote the shared identity", req.Fidelity)
		}
	}
}

// distinctRequest returns a valid request whose identity differs for every
// i, its strings and config freshly allocated as a decoded body's are.
func distinctRequest(i int, faults string) client.JobRequest {
	cfg := tinyConfig()
	cfg.MaxCycles += int64(i)
	return client.JobRequest{Benchmark: strings.Clone("BP"), Org: strings.Clone("SAC"),
		Config: &cfg, Faults: strings.Clone(faults)}
}

func distinctRequests(n int, faults string) []client.JobRequest {
	reqs := make([]client.JobRequest, n)
	for i := range reqs {
		reqs[i] = distinctRequest(i, faults)
	}
	return reqs
}

// TestResolverCapacity: filling a resolver far past its capacity keeps it at
// exactly memoSets × memoWays identities, within its footprint budget.
func TestResolverCapacity(t *testing.T) {
	const capacity = memoSets * memoWays
	if capacity < 1024 {
		t.Fatalf("capacity %d, want at least 1024 identities", capacity)
	}
	// The worst plan a remembered request may carry: the most events that
	// fit in memoMaxFaults bytes ("mem", DRAM's shortest name, fits four).
	plan := "mem:0@0;mem:1@0;mem:2@0;mem:3@0"
	if len(plan) > memoMaxFaults {
		t.Fatalf("plan %q is longer than the memo remembers", plan)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := testResolver("")
	for i := range 6 * capacity {
		if _, err := r.Resolve(distinctRequest(i, plan)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if occupied := occupied(r); occupied != capacity {
		t.Fatalf("the memo holds %d identities, want %d", occupied, capacity)
	}
	footprint := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d identities with %d-byte plans: %d KiB", capacity, len(plan), footprint>>10)
	if footprint > 1<<20 {
		t.Fatalf("a full memo holds %d KiB, want at most 1 MiB", footprint>>10)
	}
	runtime.KeepAlive(r)
}

// TestResolverConcurrent: goroutines resolving, in different orders, a hot
// set of cells and a stream three times the memo's capacity, so hits, misses
// and evictions interleave, each get ResolveRequest's answer (the race
// detector watches the sets).
func TestResolverConcurrent(t *testing.T) {
	const workers, hot = 4, 64
	n := 3 * memoSets * memoWays
	reqs := distinctRequests(n, "")
	want := make([]*jobs.Identity, n)
	for i, req := range reqs {
		var err error
		if want[i], err = ResolveRequest(req, ""); err != nil {
			t.Fatal(err)
		}
	}
	r := testResolver("")
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range n {
				i := (7*j + g*n/workers) % n
				if j%2 == 0 {
					i = j / 2 % hot
				}
				if got, err := r.Resolve(reqs[i]); err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("cell %d: %v, or an identity other than ResolveRequest's", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.hits.Value() < workers*float64(n)/2-hot {
		t.Fatalf("%v hits over %d resolves, want the hot set remembered", r.hits.Value(), workers*n)
	}
}

// TestResolverAllocs: a hit allocates nothing, and a miss — eviction
// included — no more than ResolveRequest.
func TestResolverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const runs = 200
	r := testResolver("")
	for _, req := range distinctRequests(2*memoSets*memoWays, "") {
		if _, err := r.Resolve(req); err != nil {
			t.Fatal(err)
		}
	}
	for _, faults := range []string{"", testPlan} {
		fresh := distinctRequests(2*(runs+1), faults)
		for i := range fresh {
			fresh[i].Config.WorkloadScale++ // unseen by the fill above
		}
		i := 0
		reference := testing.AllocsPerRun(runs, func() {
			_, _ = ResolveRequest(fresh[i], "")
			i++
		})
		miss := testing.AllocsPerRun(runs, func() {
			_, _ = r.Resolve(fresh[i])
			i++
		})
		hit := testing.AllocsPerRun(runs, func() {
			_, _ = r.Resolve(fresh[i-1])
		})
		t.Logf("plan %q: ResolveRequest %.1f allocs, miss %.1f, hit %.1f", faults, reference, miss, hit)
		if miss > reference || hit != 0 {
			t.Fatalf("plan %q: miss %.1f allocs (ResolveRequest %.1f), hit %.1f (want 0)", faults, miss, reference, hit)
		}
	}
}
