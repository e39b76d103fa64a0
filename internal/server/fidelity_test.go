package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/store"
)

// TestEstimateAnswersOnAcceptPath pins the estimate rung's daemon contract:
// the submission response is already terminal — no worker ever started, so
// a queued job could only hang. The result is fetchable immediately and
// carries its fidelity provenance.
func TestEstimateAnswersOnAcceptPath(t *testing.T) {
	s := New(Config{Workers: 1}) // workers deliberately never started
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, client.WithRetries(0))
	ctx := context.Background()

	req := tinyRequest("RN", "SAC")
	req.Fidelity = client.FidelityEstimate
	st, err := submit(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("estimate submit returned state %q, want terminal %q", st.State, client.StateDone)
	}
	if st.Fidelity != "estimate" {
		t.Fatalf("estimate job status Fidelity = %q", st.Fidelity)
	}
	if st.Source != client.SourceSim {
		t.Fatalf("cold estimate source = %q, want %q", st.Source, client.SourceSim)
	}
	res, err := st.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "RN" || res.Fidelity != "estimate" {
		t.Fatalf("estimate result benchmark=%q fidelity=%q", res.Benchmark, res.Fidelity)
	}
}

// TestEstimateUsesStore proves the synchronous path still rides the
// content-addressed store: a repeated estimate submission answers from the
// cache, and the estimate object never shadows the exact cell.
func TestEstimateUsesStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, c := testDaemon(t, Config{Workers: 1, Store: st})
	ctx := context.Background()

	req := tinyRequest("RN", "SAC")
	req.Fidelity = client.FidelityEstimate
	first, err := submit(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != client.SourceSim {
		t.Fatalf("cold estimate source = %q", first.Source)
	}
	second, err := submit(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != client.SourceStore {
		t.Fatalf("warm estimate source = %q, want %q", second.Source, client.SourceStore)
	}
	if second.Key != first.Key {
		t.Fatalf("same estimate cell keyed differently: %.12s vs %.12s", second.Key, first.Key)
	}

	// The exact flavour of the same cell must be a different object: a warm
	// estimate answering an exact request would silently downgrade fidelity.
	sub, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Key == first.Key {
		t.Fatal("exact job shares the estimate's store key")
	}
	if done.Source != client.SourceSim {
		t.Fatalf("exact run after estimate answered from %q; fidelity confusion in the store", done.Source)
	}
}

// TestFidelityValidation pins the HTTP error contract: unknown rungs (the
// retired "sampled" among them) and estimate-with-faults are client errors
// (400), not queue states, and an unknown rung's error names both rungs.
func TestFidelityValidation(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1})
	ctx := context.Background()

	var apiErr *client.APIError
	for _, rung := range []string{"cheap", "sampled"} {
		bad := tinyRequest("RN", "SAC")
		bad.Fidelity = rung
		_, err := submit(ctx, c, bad)
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Fatalf("fidelity %q: want 400, got %v", rung, err)
		}
		if !strings.Contains(apiErr.Message, `"estimate"`) || !strings.Contains(apiErr.Message, `"exact"`) {
			t.Fatalf("fidelity %q: error %q does not name both rungs", rung, apiErr.Message)
		}
	}

	faulted := tinyRequest("RN", "SAC")
	faulted.Fidelity = client.FidelityEstimate
	faulted.Faults = "dram:0.5@100*0.5"
	_, err := submit(ctx, c, faulted)
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("estimate with faults: want 400, got %v", err)
	}
}

// TestFidelityProvenanceAndKeys checks that both rungs carry their
// fidelity through JobStatus and that the same cell at the two rungs
// resolves to distinct dedup/store keys.
func TestFidelityProvenanceAndKeys(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	estimate := tinyRequest("RN", "SAC")
	estimate.Fidelity = client.FidelityEstimate
	est, err := submit(ctx, c, estimate)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fidelity != "estimate" {
		t.Fatalf("estimate job Fidelity = %q", est.Fidelity)
	}

	sub, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fidelity != "exact" {
		t.Fatalf("default job Fidelity = %q, want %q", ex.Fidelity, "exact")
	}
	if ex.Key == est.Key {
		t.Fatal("exact and estimate runs of the same cell share a key; dedup would cross fidelities")
	}
}

// TestDefaultFidelityConfig pins the sacd -fidelity flag's semantics: jobs
// that name no rung inherit the daemon default, jobs that do name one keep
// it, and a bogus default fails at submit rather than silently running
// exact.
func TestDefaultFidelityConfig(t *testing.T) {
	_, c := testDaemon(t, Config{Workers: 1, DefaultFidelity: "estimate"})
	ctx := context.Background()

	st, err := submit(ctx, c, tinyRequest("RN", "SAC"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fidelity != "estimate" || st.State != client.StateDone {
		t.Fatalf("defaulted job fidelity=%q state=%q, want estimate/done", st.Fidelity, st.State)
	}

	named := tinyRequest("RN", "SAC")
	named.Fidelity = client.FidelityExact
	sub, err := submit(ctx, c, named)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Fidelity != "exact" {
		t.Fatalf("explicit exact overridden by daemon default: %q", ns.Fidelity)
	}

	_, cBad := testDaemon(t, Config{Workers: 1, DefaultFidelity: "cheap"})
	_, err = submit(ctx, cBad, tinyRequest("RN", "SAC"))
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bogus DefaultFidelity: want 400 at submit, got %v", err)
	}
}
