package main

import "encoding/json"

// metricDef names one metric of the benchmark. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the run length BENCHMARK.json fixes; the per-workload pass
// counts below are calibrated so one run measures about this long on the
// 2-core reference box.
const runSeconds = 15

// workloadDefs lists the four workloads in -all order with the reason each
// exists (copied into BENCHMARK.json).
var workloadDefs = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{exactSweep, "cold cycle-exact Fig-8-style sweep in process: the simulator packages do all the work, the serving layers none"},
	{estimateSweep, "256-cell estimate-rung sweep in process: backend, workload and core do the work, the cycle loop and serving layers none"},
	{serveWarm, "closed loop of 2 clients batching warm estimate cells through sacd over loopback HTTP: protocol and store reads, no simulation"},
	{fleetCold, "unique exact cells through saccoord and 2 journaled sacd workers: placement, dispatch, queue, journal, simulate, store writes, watch"},
}

// endToEnd are the metrics a user of the system sees; every untraced run of
// every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"cells_per_s", "cells/s", higher, 0.20},
	{"cells_per_cpu_s", "cells/cpu-s", higher, 0.20},
	{"batch_p50_ms", "ms", lower, 0.20},
	{"allocs_per_cell", "allocs/cell", lower, 0.05},
	{"peak_rss_mb", "MiB", lower, 0.20},
	{"decision_agreement", "share", higher, 0.01},
}

// cpuShareLayers are the buckets a CPU-profile sample can land in; the
// shares sum to 1.
var cpuShareLayers = []string{
	"gpu", "sm", "cache", "noc", "llc", "xchip", "dram", "bwsim", "addr",
	"memsys", "core", "workload",
	"backend", "eval", "store", "sha256", "journal", "server", "json", "http",
	"gzip", "cluster", "client", "obs", "gc", "runtime", "syscall", "harness",
	"other",
}

// perLayer are the metrics of single layers; every traced run of every
// workload reports all of them (0 where the layer does no work).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// gpu
		{Name: "gpu.sim_cycles", Unit: "cycles", Better: lower},
		{Name: "gpu.skipped_cycles", Unit: "cycles", Better: higher},
		{Name: "gpu.sim_cycles_per_cpu_s", Unit: "cycles/cpu-s", Better: higher},
		{Name: "gpu.build_ns_per_cell", Unit: "ns", Better: lower},
		{Name: "gpu.run_ns_per_cell", Unit: "ns", Better: lower},
		{Name: "gpu.host_ns_per_stepped_cycle", Unit: "ns", Better: lower},
		{Name: "gpu.host_ns_per_memop", Unit: "ns", Better: lower},
		{Name: "gpu.parallel_w2_ratio", Unit: "ratio", Better: lower},
		// sm, cache, noc, llc, xchip, dram
		{Name: "sm.memops", Unit: "count", Better: lower},
		{Name: "cache.l1_hits", Unit: "count", Better: higher},
		{Name: "cache.l1_misses", Unit: "count", Better: lower},
		{Name: "cache.lookup_ns", Unit: "ns", Better: lower},
		{Name: "llc.hits", Unit: "count", Better: higher},
		{Name: "llc.misses", Unit: "count", Better: lower},
		{Name: "llc.lookup_ns", Unit: "ns", Better: lower},
		{Name: "xchip.ring_bytes", Unit: "bytes", Better: lower},
		{Name: "dram.bytes", Unit: "bytes", Better: lower},
		// core
		{Name: "core.reconfigs", Unit: "count", Better: lower},
		{Name: "core.drain_cycles", Unit: "cycles", Better: lower},
		{Name: "core.crd_access_ns", Unit: "ns", Better: lower},
		{Name: "core.decide_ns", Unit: "ns", Better: lower},
		// workload
		{Name: "workload.stream_ns_per_access", Unit: "ns", Better: lower},
		// backend
		{Name: "backend.estimate_ns_per_cell", Unit: "ns", Better: lower},
		{Name: "backend.estimate_cycles_rel_err", Unit: "share", Better: lower},
		// eval
		{Name: "eval.self_ns_per_cell", Unit: "ns", Better: lower},
		{Name: "eval.overhead_share", Unit: "share", Better: lower},
		// store
		{Name: "store.key_ns", Unit: "ns", Better: lower},
		{Name: "store.get_hot_ns", Unit: "ns", Better: lower},
		{Name: "store.get_disk_ns", Unit: "ns", Better: lower},
		{Name: "store.put_ns", Unit: "ns", Better: lower},
		{Name: "store.hits", Unit: "count", Better: higher},
		{Name: "store.misses", Unit: "count", Better: lower},
		{Name: "store.hot_len", Unit: "count", Better: higher},
		// journal
		{Name: "journal.append_ns", Unit: "ns", Better: lower},
		{Name: "journal.records", Unit: "count", Better: lower},
		// server
		{Name: "server.handle_ns_per_job", Unit: "ns", Better: lower},
		{Name: "server.submit_batch_ns_per_job", Unit: "ns", Better: lower},
		{Name: "server.http_ns_per_job", Unit: "ns", Better: lower},
		{Name: "server.resolve_ns", Unit: "ns", Better: lower},
		{Name: "server.src_sim", Unit: "count", Better: lower},
		{Name: "server.src_store", Unit: "count", Better: higher},
		{Name: "server.src_memo", Unit: "count", Better: higher},
		{Name: "server.src_dedup", Unit: "count", Better: higher},
		// cluster
		{Name: "cluster.handle_ns_per_job", Unit: "ns", Better: lower},
		{Name: "cluster.wait_ns_per_job", Unit: "ns", Better: lower},
		{Name: "cluster.dispatch_ns_per_job", Unit: "ns", Better: lower},
		{Name: "cluster.ring_owner_ns", Unit: "ns", Better: lower},
		{Name: "cluster.dispatched", Unit: "count", Better: lower},
		{Name: "cluster.steals", Unit: "count", Better: lower},
		{Name: "cluster.dedup", Unit: "count", Better: higher},
		{Name: "cluster.placement_skew", Unit: "ratio", Better: lower},
		// client
		{Name: "client.submit_ns_per_job", Unit: "ns", Better: lower},
		{Name: "client.wait_ns_per_job", Unit: "ns", Better: lower},
		{Name: "client.self_ns_per_job", Unit: "ns", Better: lower},
		{Name: "client.batch_p99_ms", Unit: "ms", Better: lower},
		// runtime, harness
		{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
		{Name: "harness.self_ns_per_cell", Unit: "ns", Better: lower},
		{Name: "harness.span_sum_share", Unit: "share", Better: higher},
		{Name: "harness.host_slowdown", Unit: "ratio", Better: lower},
		{Name: "harness.wall_s", Unit: "s", Better: lower},
		{Name: "harness.cpu_s", Unit: "s", Better: lower},
		{Name: "harness.trace_overhead", Unit: "share", Better: lower},
	}
	for _, l := range cpuShareLayers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "share", Better: lower})
	}
	return defs
}

// benchmarkJSON renders the contract file the driver reads; BENCHMARK.json
// at the repo root is this output, and the test pins the two together.
func benchmarkJSON() ([]byte, error) {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	return json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloadDefs,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}, "", "  ")
}
