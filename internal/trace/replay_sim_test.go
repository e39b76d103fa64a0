package trace

import (
	"bytes"
	"testing"

	"repro/internal/gpu"
	"repro/internal/llc"
)

// A replayed trace must reproduce the synthetic run bit-for-bit: same
// cycles, same hits, same traffic.
func TestReplayMatchesSyntheticSimulation(t *testing.T) {
	cfg := gpu.ScaledConfig()
	cfg.Chips = 2
	cfg.SMsPerChip = 2
	cfg.WarpsPerSM = 2
	cfg.SlicesPerChip = 2
	cfg.LLCBytesPerChip = 64 << 10
	cfg.L1BytesPerSM = 4 << 10
	cfg.ChannelsPerChip = 2
	cfg.ChannelBW = 32
	cfg.RingLinkBW = 12
	cfg.WorkloadScale = 256
	cfg.SACOpts.WindowCycles = 1000

	s := spec()
	s.Repeats = 1
	var buf bytes.Buffer
	if err := Capture(&buf, s, cfg.Machine()); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplay(tr)
	if err := rep.CheckMachine(cfg.Machine()); err != nil {
		t.Fatal(err)
	}

	for _, org := range []llc.Org{llc.MemorySide, llc.SMSide, llc.SAC} {
		synth, err := gpu.RunWith(cfg.WithOrg(org), s, gpu.RunOpts{})
		if err != nil {
			t.Fatalf("%s synthetic: %v", org, err)
		}
		replayed, err := gpu.RunWith(cfg.WithOrg(org), rep, gpu.RunOpts{})
		if err != nil {
			t.Fatalf("%s replay: %v", org, err)
		}
		if synth.Cycles != replayed.Cycles || synth.MemOps != replayed.MemOps ||
			synth.LLCHits != replayed.LLCHits || synth.RingBytes != replayed.RingBytes ||
			synth.DRAMBytes != replayed.DRAMBytes {
			t.Fatalf("%s: replay diverged:\nsynth:  cyc=%d ops=%d hits=%d ring=%d dram=%d\nreplay: cyc=%d ops=%d hits=%d ring=%d dram=%d",
				org,
				synth.Cycles, synth.MemOps, synth.LLCHits, synth.RingBytes, synth.DRAMBytes,
				replayed.Cycles, replayed.MemOps, replayed.LLCHits, replayed.RingBytes, replayed.DRAMBytes)
		}
	}
}
