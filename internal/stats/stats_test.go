package stats

import (
	"math"
	"testing"

	"repro/internal/memsys"
)

func TestIPCAndSpeedup(t *testing.T) {
	a := &Run{Cycles: 100, MemOps: 50}
	b := &Run{Cycles: 200, MemOps: 50}
	if a.IPC() != 0.5 || b.IPC() != 0.25 {
		t.Fatalf("IPC %v %v", a.IPC(), b.IPC())
	}
	if s := Speedup(a, b); s != 2 {
		t.Fatalf("Speedup = %v, want 2", s)
	}
	empty := &Run{}
	if empty.IPC() != 0 || Speedup(a, empty) != 0 {
		t.Fatal("zero guards failed")
	}
}

func TestHitAndMissRates(t *testing.T) {
	r := &Run{LLCHits: 30, LLCMisses: 70}
	if r.LLCHitRate() != 0.3 || r.LLCMissRate() != 0.7 {
		t.Fatalf("rates %v %v", r.LLCHitRate(), r.LLCMissRate())
	}
	if (&Run{}).LLCHitRate() != 0 || (&Run{}).LLCMissRate() != 0 {
		t.Fatal("empty run rates should be 0")
	}
}

func TestResponseAccounting(t *testing.T) {
	r := &Run{Cycles: 10}
	r.RespCount[memsys.OriginLocalLLC], r.RespBytes[memsys.OriginLocalLLC] = 2, 320
	r.RespCount[memsys.OriginRemoteMem], r.RespBytes[memsys.OriginRemoteMem] = 1, 160
	if got := r.EffectiveLLCBandwidth(); got != 48 {
		t.Fatalf("EffectiveLLCBandwidth = %v, want 48", got)
	}
	bd := r.RespBreakdown()
	if bd[memsys.OriginLocalLLC] != 32 || bd[memsys.OriginRemoteMem] != 16 {
		t.Fatalf("breakdown = %v", bd)
	}
}

func TestRemoteOccupancy(t *testing.T) {
	r := &Run{OccLocalSum: 75, OccRemoteSum: 25, OccSamples: 10}
	if got := r.RemoteOccupancy(); got != 0.25 {
		t.Fatalf("RemoteOccupancy = %v", got)
	}
	if (&Run{}).RemoteOccupancy() != 0 {
		t.Fatal("empty occupancy should be 0")
	}
}

func TestAvgReadLatency(t *testing.T) {
	r := &Run{ReadLatencySum: 1000, ReadLatencyN: 10}
	if r.AvgReadLatency() != 100 {
		t.Fatalf("AvgReadLatency = %v", r.AvgReadLatency())
	}
	if (&Run{}).AvgReadLatency() != 0 {
		t.Fatal("empty latency should be 0")
	}
}

func TestHarmonicMean(t *testing.T) {
	got := HarmonicMeanSpeedup([]float64{1, 2})
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Fatalf("HM(1,2) = %v, want 4/3", got)
	}
	if HarmonicMeanSpeedup(nil) != 0 {
		t.Fatal("empty HM should be 0")
	}
	if HarmonicMeanSpeedup([]float64{1, 0}) != 0 {
		t.Fatal("non-positive speedup should yield 0")
	}
	// HM is dominated by the slowest benchmark.
	if HarmonicMeanSpeedup([]float64{0.1, 10}) > 1 {
		t.Fatal("HM should punish slowdowns")
	}
}
