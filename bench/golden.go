package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	sac "repro"
)

// goldenPath is where -regen-golden writes, relative to the repo root; the
// file is compiled into the benchmark, so runs never read it from disk.
const goldenPath = "bench/golden/exact.json"

//go:embed golden/exact.json
var goldenRaw []byte

// goldenCell pins one cycle-exact result: the hash of its canonical JSON
// plus the headline counters, so a mismatch report can say what moved.
type goldenCell struct {
	SHA256     string   `json:"sha256"`
	Cycles     int64    `json:"cycles"`
	MemOps     int64    `json:"mem_ops"`
	LLCHits    int64    `json:"llc_hits"`
	LLCMisses  int64    `json:"llc_misses"`
	RingBytes  int64    `json:"ring_bytes"`
	DRAMBytes  int64    `json:"dram_bytes"`
	KernelOrgs []string `json:"kernel_orgs"`
}

// goldenFile holds every exact_sweep cell ("<benchmark>/<org>" on
// sweepConfig) and the 16 ScaledConfig SAC cells ("<benchmark>") whose
// per-kernel decisions and cycle counts the estimate rung is scored against.
type goldenFile struct {
	Sweep     map[string]goldenCell `json:"sweep"`
	ScaledSAC map[string]goldenCell `json:"scaled_sac"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenRaw, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &g, nil
}

// canonicalJSON is the byte form results are compared in: json.Marshal of
// the stats.Run, which is also what the store files and the daemons serve.
func canonicalJSON(st *sac.Stats) []byte {
	b, err := json.Marshal(st)
	if err != nil {
		// stats.Run is a flat value struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("bench: marshal result: %v", err))
	}
	return b
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func kernelOrgs(st *sac.Stats) []string {
	orgs := make([]string, len(st.Kernels))
	for i, k := range st.Kernels {
		orgs[i] = k.Org
	}
	return orgs
}

func goldenOf(st *sac.Stats) goldenCell {
	return goldenCell{
		SHA256: sha256Hex(canonicalJSON(st)),
		Cycles: st.Cycles, MemOps: st.MemOps,
		LLCHits: st.LLCHits, LLCMisses: st.LLCMisses,
		RingBytes: st.RingBytes, DRAMBytes: st.DRAMBytes,
		KernelOrgs: kernelOrgs(st),
	}
}

// check compares a result with its golden cell and describes the first
// difference ("" = identical).
func (g goldenCell) check(st *sac.Stats) string {
	got := goldenOf(st)
	switch {
	case got.SHA256 == g.SHA256:
		return ""
	case got.Cycles != g.Cycles:
		return fmt.Sprintf("cycles %d, golden %d", got.Cycles, g.Cycles)
	case got.MemOps != g.MemOps:
		return fmt.Sprintf("mem ops %d, golden %d", got.MemOps, g.MemOps)
	case got.LLCHits != g.LLCHits || got.LLCMisses != g.LLCMisses:
		return fmt.Sprintf("LLC hits/misses %d/%d, golden %d/%d", got.LLCHits, got.LLCMisses, g.LLCHits, g.LLCMisses)
	case got.RingBytes != g.RingBytes || got.DRAMBytes != g.DRAMBytes:
		return fmt.Sprintf("ring/DRAM bytes %d/%d, golden %d/%d", got.RingBytes, got.DRAMBytes, g.RingBytes, g.DRAMBytes)
	}
	return fmt.Sprintf("sha256 %s, golden %s (headline counters equal)", got.SHA256, g.SHA256)
}

func sweepKey(benchmark string, org sac.Org) string { return benchmark + "/" + org.String() }

// regenGolden re-simulates every golden cell on the cycle-exact rung and
// rewrites the golden file. Run it only for a change that is meant to alter
// simulated results.
func regenGolden() error {
	g := goldenFile{Sweep: map[string]goldenCell{}, ScaledSAC: map[string]goldenCell{}}
	for _, c := range exactSweepCells(sizeFull) {
		st, err := sac.Run(c.cfg, c.spec, sac.WithWorkers(1))
		if err != nil {
			return err
		}
		g.Sweep[sweepKey(c.spec.Name, c.cfg.Org)] = goldenOf(st)
		fmt.Fprintf(os.Stderr, "golden: sweep %s/%s %d cycles\n", c.spec.Name, c.cfg.Org, st.Cycles)
	}
	for _, spec := range sac.Benchmarks() {
		st, err := sac.Run(sac.ScaledConfig().WithOrg(sac.SAC), spec, sac.WithWorkers(1))
		if err != nil {
			return err
		}
		g.ScaledSAC[spec.Name] = goldenOf(st)
		fmt.Fprintf(os.Stderr, "golden: scaled SAC %s %d cycles %v\n", spec.Name, st.Cycles, kernelOrgs(st))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
