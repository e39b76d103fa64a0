package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/llc"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestRunnerStoreWarmCache runs the same cells through two fresh Runners
// sharing one store directory: the second must simulate nothing and return
// byte-identical results. The store counts the hits and misses.
func TestRunnerStoreWarmCache(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	cold := testRunner("BP")
	cold.Parallelism = 2
	cold.Store = open()
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []RunRequest{
		{Cfg: cold.Base.WithOrg(llc.MemorySide), Spec: spec},
		{Cfg: cold.Base.WithOrg(llc.SMSide), Spec: spec},
	}
	coldRuns, err := cold.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Runs() != 2 || cold.Store.Hits() != 0 || cold.Store.Misses() != 2 {
		t.Fatalf("cold sweep: runs=%d hits=%d misses=%d, want 2/0/2",
			cold.Runs(), cold.Store.Hits(), cold.Store.Misses())
	}
	cold.Store.Close()

	warm := testRunner("BP")
	warm.Parallelism = 2
	warm.Store = open()
	warmRuns, err := warm.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Runs() != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", warm.Runs())
	}
	if warm.Store.Hits() != 2 || warm.Store.Misses() != 0 {
		t.Fatalf("warm sweep: hits=%d misses=%d, want 2/0", warm.Store.Hits(), warm.Store.Misses())
	}
	for i := range coldRuns {
		cb, _ := json.Marshal(coldRuns[i])
		wb, _ := json.Marshal(warmRuns[i])
		if string(cb) != string(wb) {
			t.Fatalf("cell %d differs between cold and warm sweep:\n%s\n%s", i, cb, wb)
		}
	}
}

// TestRunnerStoreKeysFaultPlans checks that faulted and healthy runs of the
// same cell occupy distinct store slots.
func TestRunnerStoreKeysFaultPlans(t *testing.T) {
	cfg := testRunner("BP").Base
	healthy := store.KeyAt(cfg, "BP", "", "")
	faulted := store.KeyAt(cfg, "BP", "dram:0.0@100*0.5", "")
	if healthy == faulted {
		t.Fatal("fault plan does not separate store keys")
	}
}

// TestRunnerStoreHitFiresOnCellDone pins progress reporting for cached
// cells: a store hit is a completed cell from the caller's point of view.
func TestRunnerStoreHitFiresOnCellDone(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}

	cold := testRunner("BP")
	cold.Store = st
	if _, err := cold.RunAll([]RunRequest{{Cfg: cold.Base.WithOrg(llc.MemorySide), Spec: spec}}); err != nil {
		t.Fatal(err)
	}

	warm := testRunner("BP")
	warm.Store = st
	var cells []CellResult
	warm.OnCellDone = func(c CellResult) { cells = append(cells, c) }
	if _, err := warm.RunAll([]RunRequest{{Cfg: warm.Base.WithOrg(llc.MemorySide), Spec: spec}}); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("OnCellDone fired %d times for a store hit, want 1", len(cells))
	}
	if cells[0].Err != nil || cells[0].Cycles == 0 {
		t.Fatalf("store-hit cell result malformed: %+v", cells[0])
	}
	if warm.Runs() != 0 || st.Hits() != 1 {
		t.Fatalf("warm run: runs=%d store hits=%d, want 0/1 (a store hit)", warm.Runs(), st.Hits())
	}
}

// TestRunnerReportsFirstStorePutFailure checks failed write-backs are not
// silent: the sweep still succeeds, the store counts every failure, and Log
// carries one line per failed put (sacd's write-back policy).
func TestRunnerReportsFirstStorePutFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A plain file where the store directory belongs blocks the segment a
	// write-back appends to, even for root.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner("BP")
	r.Store = st
	var log bytes.Buffer
	r.Log = &log
	reqs := []RunRequest{
		{Cfg: r.Base.WithOrg(llc.MemorySide), Spec: spec},
		{Cfg: r.Base.WithOrg(llc.SMSide), Spec: spec},
	}
	if _, err := r.RunAll(reqs); err != nil {
		t.Fatalf("a failed write-back failed the sweep: %v", err)
	}
	if st.PutErrors() != 2 {
		t.Fatalf("store counted %d put errors, want 2", st.PutErrors())
	}
	if n := strings.Count(log.String(), "# store: put BP/"); n != 2 {
		t.Fatalf("Log carries %d write-back reports, want one per failed put (2):\n%s", n, log.String())
	}
}
