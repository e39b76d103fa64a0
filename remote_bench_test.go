package sac_test

// Remote serving-path benchmarks: how fast a warmed sacd answers a full
// 256-cell estimate sweep over the batch path (one jobs:batch submission)
// versus the legacy per-job path (256 × submit + poll + result). Both run
// against a real loopback HTTP daemon, so the numbers include routing, JSON,
// and the zero-copy store-hit plumbing — everything but simulation cost.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	sac "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/store"
)

// remoteUniverse builds the 256-cell sweep: all 16 benchmarks × 4 LLC
// organizations × 4 workload scales, estimate fidelity, explicit configs so
// the store keys are stable.
func remoteUniverse() []client.JobRequest {
	orgs := []string{"SAC", "memory-side", "SM-side", "static"}
	scales := []int{256, 384, 512, 640}
	var reqs []client.JobRequest
	for _, bench := range sac.BenchmarkNames() {
		for _, org := range orgs {
			for _, scale := range scales {
				cfg := sac.ScaledConfig()
				cfg.WorkloadScale = scale
				reqs = append(reqs, client.JobRequest{
					Benchmark: bench,
					Org:       org,
					Config:    &cfg,
					Fidelity:  client.FidelityEstimate,
				})
			}
		}
	}
	return reqs
}

// startBenchDaemon boots a loopback sacd over a fresh store and warms it
// with the full universe so the measured phase is pure serving.
func startBenchDaemon(tb testing.TB, universe []client.JobRequest) *client.Client {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s := server.New(server.Config{Store: st, QueueCap: 2 * len(universe)})
	s.Start()
	hs := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		st.Close()
	})
	c := client.New(hs.URL)
	ctx := context.Background()
	for off := 0; off < len(universe); off += client.MaxBatch {
		end := min(off+client.MaxBatch, len(universe))
		sts, err := c.SubmitBatch(ctx, universe[off:end])
		if err != nil {
			tb.Fatal(err)
		}
		for _, st := range sts {
			if st.State != client.StateDone {
				tb.Fatalf("warmup cell %s: %s (%s)", st.ID, st.State, st.Error)
			}
		}
	}
	return c
}

// sweepBatch runs one full sweep over the batch path: a single jobs:batch
// submission whose response already carries every terminal status.
func sweepBatch(tb testing.TB, c *client.Client, universe []client.JobRequest) {
	sts, err := c.SubmitBatch(context.Background(), universe)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range sts {
		if sts[i].State != client.StateDone {
			tb.Fatalf("cell %d: %s (%s)", i, sts[i].State, sts[i].Error)
		}
	}
}

// sweepPerJob runs the same sweep the pre-batch way: one submit, one status
// wait, and one result fetch per cell, serially — what sacsweep -remote did
// per cell before batching (its concurrency came only from sweep workers).
func sweepPerJob(tb testing.TB, c *client.Client, universe []client.JobRequest) {
	ctx := context.Background()
	for i := range universe {
		st, err := c.Submit(ctx, universe[i])
		if err != nil {
			tb.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID); err != nil {
			tb.Fatal(err)
		}
		if st.State != client.StateDone {
			tb.Fatalf("cell %d: %s (%s)", i, st.State, st.Error)
		}
		if _, err := c.Result(ctx, st.ID); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRemoteEstimateSweep measures the batch path; the jobs/s metric is
// the whole-sweep rate (256 cells per op).
func BenchmarkRemoteEstimateSweep(b *testing.B) {
	universe := remoteUniverse()
	c := startBenchDaemon(b, universe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepBatch(b, c, universe)
	}
	b.ReportMetric(float64(b.N*len(universe))/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRemoteEstimateSweepPerJob measures the legacy per-job path over
// the identical warmed universe.
func BenchmarkRemoteEstimateSweepPerJob(b *testing.B) {
	universe := remoteUniverse()
	c := startBenchDaemon(b, universe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepPerJob(b, c, universe)
	}
	b.ReportMetric(float64(b.N*len(universe))/b.Elapsed().Seconds(), "jobs/s")
}
