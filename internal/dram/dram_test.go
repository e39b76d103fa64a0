package dram

import (
	"testing"

	"repro/internal/memsys"
)

func mkReq(id uint64, ch int, kind memsys.AccessKind) *memsys.Request {
	return &memsys.Request{ID: id, Channel: ch, Kind: kind}
}

func TestLatency(t *testing.T) {
	p := New(Config{Channels: 2, ChannelBW: 128, Latency: 50})
	var done []*memsys.Request
	cb := func(r *memsys.Request) { done = append(done, r) }
	p.Enqueue(mkReq(1, 0, memsys.Read))
	for now := int64(0); now < 50; now++ {
		p.Tick(now, 128, cb)
	}
	if len(done) != 0 {
		t.Fatal("request completed before latency elapsed")
	}
	p.Tick(50, 128, cb)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("done = %v", done)
	}
	if p.Reads != 1 || p.Writes != 0 {
		t.Fatalf("reads=%d writes=%d", p.Reads, p.Writes)
	}
}

func TestChannelBandwidth(t *testing.T) {
	// 64 B/cycle channel with 128 B lines: one access every 2 cycles → ~50
	// completions in 100 cycles + latency.
	p := New(Config{Channels: 1, ChannelBW: 64, Latency: 10})
	var done int
	cb := func(*memsys.Request) { done++ }
	for i := 0; i < 200; i++ {
		p.Enqueue(mkReq(uint64(i), 0, memsys.Read))
	}
	for now := int64(0); now < 110; now++ {
		p.Tick(now, 128, cb)
	}
	if done < 45 || done > 56 {
		t.Fatalf("completed %d in 100+10 cycles at 0.5 lines/cycle, want ~50", done)
	}
}

func TestChannelsIndependent(t *testing.T) {
	p := New(Config{Channels: 2, ChannelBW: 128, Latency: 5})
	var done int
	cb := func(*memsys.Request) { done++ }
	for i := 0; i < 20; i++ {
		p.Enqueue(mkReq(uint64(i), i%2, memsys.Read))
	}
	for now := int64(0); now < 20; now++ {
		p.Tick(now, 128, cb)
	}
	if done != 20 {
		t.Fatalf("completed %d, want all 20 (parallel channels)", done)
	}
}

func TestWritesCounted(t *testing.T) {
	p := New(Config{Channels: 1, ChannelBW: 1e6, Latency: 1})
	var done int
	cb := func(*memsys.Request) { done++ }
	p.Enqueue(mkReq(1, 0, memsys.Write))
	for now := int64(0); now < 5; now++ {
		p.Tick(now, 128, cb)
	}
	if p.Writes != 1 || done != 1 {
		t.Fatalf("writes=%d done=%d", p.Writes, done)
	}
}

func TestBackPressure(t *testing.T) {
	p := New(Config{Channels: 1, ChannelBW: 1, Latency: 1, QueueBound: 2})
	p.Enqueue(mkReq(1, 0, memsys.Read))
	p.Enqueue(mkReq(2, 0, memsys.Read))
	if p.CanAccept(0) {
		t.Fatal("full queue should refuse")
	}
	if p.Pending() != 2 {
		t.Fatalf("Pending = %d", p.Pending())
	}
}

func TestDrainWriteback(t *testing.T) {
	p := New(Config{Channels: 1, ChannelBW: 128, Latency: 1})
	p.DrainWriteback(0, 128)
	if p.Writes != 1 || p.BytesMoved != 128 {
		t.Fatalf("writes=%d bytes=%d", p.Writes, p.BytesMoved)
	}
}

func TestEnqueuePanicsOnBadChannel(t *testing.T) {
	p := New(Config{Channels: 2, ChannelBW: 1, Latency: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad channel did not panic")
		}
	}()
	p.Enqueue(mkReq(1, 7, memsys.Read))
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 channels did not panic")
		}
	}()
	New(Config{Channels: 0, ChannelBW: 1})
}

func TestPresets(t *testing.T) {
	if GDDR6.TotalGBs <= GDDR5.TotalGBs || HBM2.TotalGBs <= GDDR6.TotalGBs {
		t.Fatal("preset bandwidth ordering wrong")
	}
	for _, i := range []Interface{GDDR5, GDDR6, HBM2} {
		if i.Name == "" || i.LatencyCyc <= 0 {
			t.Fatalf("bad preset %+v", i)
		}
	}
}
