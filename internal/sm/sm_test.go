package sm

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/workload"
)

var testGeom = memsys.Geometry{LineBytes: 128, PageBytes: 4096, Sectors: 4}

func testMachine() workload.Machine {
	return workload.Machine{
		Chips: 4, SMsPerChip: 4, WarpsPerSM: 4,
		Geom: testGeom, Scale: 256,
	}
}

func testSpec() workload.Spec {
	return workload.Spec{
		Name: "smtest", CTAs: 64, Repeats: 1,
		Kernels: []workload.Kernel{{
			Name:      "k0",
			PrivateMB: 24, FalseMB: 12, TrueMB: 12,
			BlockLines: 8, ReusePriv: 2, ReuseTrue: 3,
			PassesFalse:  2,
			TrueWindowMB: 4, WriteFrac: 0.15, ComputeGap: 2,
		}},
	}
}

func smUnderTest(t *testing.T) *SM {
	t.Helper()
	s := New(Config{Chip: 1, Index: 2, L1Lines: 32, L1Ways: 8, Geom: testGeom, Sectors: 1})
	m := testMachine()
	spec := testSpec()
	streams := make([]workload.AccessStream, m.WarpsPerSM)
	for w := range streams {
		streams[w] = spec.Stream(m, 0, 1, 2, w)
	}
	s.LoadStreams(streams)
	return s
}

func TestNewPanicsOnBadL1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad L1 geometry accepted")
		}
	}()
	New(Config{L1Lines: 30, L1Ways: 8, Geom: testGeom})
}

func TestIdentity(t *testing.T) {
	s := smUnderTest(t)
	if s.Chip() != 1 || s.Index() != 2 {
		t.Fatalf("identity %d/%d", s.Chip(), s.Index())
	}
}

func TestIssuesAndBlocksOnLoadMiss(t *testing.T) {
	s := smUnderTest(t)
	var req *memsys.Request
	for now := int64(1); now < 1000 && req == nil; now++ {
		res := s.Issue(now, true)
		if res.Req != nil && res.Req.Kind == memsys.Read {
			req = res.Req
		}
	}
	if req == nil {
		t.Fatal("no load miss issued")
	}
	if req.SrcChip != 1 || req.SrcSM != 2 {
		t.Fatalf("request identity %+v", req)
	}
	if s.Outstanding() == 0 {
		t.Fatal("no outstanding load tracked")
	}
	req.HomeChip = req.SrcChip
	if n := s.Receive(2000, req); n == 0 {
		t.Fatal("Receive unblocked no warps")
	}
	if !s.L1().Probe(req.Line, 0) {
		t.Fatal("L1 not filled by response")
	}
}

func TestMergesMissesOnSameLine(t *testing.T) {
	s := smUnderTest(t)
	var req *memsys.Request
	var issuer int
	for now := int64(1); now < 1000 && req == nil; now++ {
		if res := s.Issue(now, true); res.Req != nil && res.Req.Kind == memsys.Read {
			req, issuer = res.Req, res.Warp
		}
	}
	if req == nil {
		t.Fatal("no load miss issued")
	}
	other := (issuer + 1) % len(s.warps)
	w := &s.warps[other]
	w.next = workload.Access{Line: req.Line, Kind: memsys.Read}
	w.hasNext, w.blocked, w.done, w.readyAt = true, false, false, 0
	s.greedy = other
	res := s.Issue(5000, true)
	if !res.Merged || res.Req != nil {
		t.Fatalf("expected a merged miss, got %+v", res)
	}
	req.HomeChip = req.SrcChip
	if n := s.Receive(6000, req); n < 2 {
		t.Fatalf("Receive unblocked %d warps, want >= 2", n)
	}
}

func TestSleepHint(t *testing.T) {
	s := smUnderTest(t)
	for now := int64(1); now < 5000; now++ {
		s.Issue(now, true)
		blocked := true
		for i := range s.warps {
			w := &s.warps[i]
			if !w.done && !w.blocked {
				blocked = false
			}
		}
		if blocked {
			break
		}
	}
	s.Issue(6000, true)
	if s.SleepUntil() <= 6000 {
		t.Skip("warps did not all block")
	}
	s.Receive(7000, &memsys.Request{Line: s.pending[0].line, Kind: memsys.Read, SrcChip: s.Chip()})
	if s.SleepUntil() > 7010 {
		t.Fatalf("sleep hint %d not cleared by Receive", s.SleepUntil())
	}
}

func TestRespectsCanInject(t *testing.T) {
	s := smUnderTest(t)
	for now := int64(1); now < 200; now++ {
		if res := s.Issue(now, false); res.Req != nil {
			t.Fatal("request escaped a full port")
		}
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s := smUnderTest(t)
	first, _ := s.pickWarp(1)
	if first < 0 {
		t.Fatal("no warp ready")
	}
	if again, _ := s.pickWarp(1); again != first {
		t.Fatalf("greedy pick changed: %d -> %d", first, again)
	}
	s.warps[first].blocked = true
	s.runnable &^= 1 << uint(first)
	next, _ := s.pickWarp(1)
	if next == first || next < 0 {
		t.Fatalf("fallback pick %d", next)
	}
	for i := 0; i < next; i++ {
		w := &s.warps[i]
		if !w.blocked && !w.done && w.readyAt <= 1 {
			t.Fatalf("warp %d was older and ready but %d picked", i, next)
		}
	}
}

func TestChipSector(t *testing.T) {
	if ChipSector(100, 2, 1) != 0 {
		t.Fatal("unsectored must return sector 0")
	}
	varies := false
	for line := uint64(0); line < 64; line++ {
		a, b := ChipSector(line, 0, 4), ChipSector(line, 1, 4)
		if a < 0 || a > 3 || b < 0 || b > 3 {
			t.Fatal("sector out of range")
		}
		if a != ChipSector(line, 0, 4) {
			t.Fatal("non-deterministic sector")
		}
		if a != b {
			varies = true
		}
	}
	if !varies {
		t.Fatal("sector never varies by chip")
	}
}

func TestKernelDoneRequiresDrainedLoads(t *testing.T) {
	s := smUnderTest(t)
	var inflight []*memsys.Request
	for now := int64(1); now < 200000 && s.doneWarps < len(s.warps); now++ {
		res := s.Issue(now, true)
		if res.Req != nil && res.Req.Kind == memsys.Read {
			inflight = append(inflight, res.Req)
		}
		if now%3 == 0 && len(inflight) > 0 {
			req := inflight[0]
			inflight = inflight[1:]
			req.HomeChip = req.SrcChip
			s.Receive(now, req)
		}
	}
	for _, req := range inflight {
		req.HomeChip = req.SrcChip
		s.Receive(300000, req)
	}
	if !s.KernelDone() {
		t.Fatalf("KernelDone false: %d/%d warps done, %d outstanding",
			s.doneWarps, len(s.warps), s.Outstanding())
	}
	if h, m := s.L1Stats(); h+m == 0 {
		t.Fatal("no L1 activity recorded")
	}
}

func TestFlushL1(t *testing.T) {
	s := smUnderTest(t)
	var req *memsys.Request
	for now := int64(1); now < 1000 && req == nil; now++ {
		if res := s.Issue(now, true); res.Req != nil && res.Req.Kind == memsys.Read {
			req = res.Req
		}
	}
	req.HomeChip = req.SrcChip
	s.Receive(2000, req)
	if !s.L1().Probe(req.Line, 0) {
		t.Fatal("line missing before flush")
	}
	s.FlushL1()
	if s.L1().Probe(req.Line, 0) {
		t.Fatal("line survived flush")
	}
}
