package core

import (
	"math/rand/v2"
	"testing"
)

// record is one Profiler.Record call.
type record struct {
	line                     uint64
	sector, src, home, slice int
	hit                      bool
}

// records returns n seeded records on a 2-chip, 2-slice machine, over few
// enough lines that a small CRD's sets overflow and evict.
func records(seed uint64, n int) []record {
	r := rand.New(rand.NewPCG(seed, 0))
	rs := make([]record, n)
	for i := range rs {
		rs[i] = record{
			line: r.Uint64N(48), sector: r.IntN(4),
			src: r.IntN(2), home: r.IntN(2), slice: r.IntN(2), hit: r.IntN(2) == 0,
		}
	}
	return rs
}

func (p *Profiler) replay(rec record) {
	p.Record(rec.line, rec.sector, rec.src, rec.home, rec.slice, rec.hit)
}

// FuzzProfilerReset holds Reset to its contract: a profiler that ran one
// window and was Reset records the next window exactly as a fresh one does.
// Both are fed the same seeded Record sequence, on an unsectored and a
// sectored CRD small enough that the windows evict, and must report the same
// Inputs and Samples after every record.
func FuzzProfilerReset(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint64(2), uint16(64))
	f.Add(uint64(3), uint16(200), uint64(4), uint16(200))
	f.Add(uint64(5), uint16(1000), uint64(5), uint16(500))
	f.Fuzz(func(t *testing.T, priorSeed uint64, priorLen uint16, seed uint64, n uint16) {
		for _, sectors := range []int{1, 4} {
			cfg := CRDConfig{Sets: 2, Ways: 4, Sectors: sectors, LLCSetsPerChip: 4}
			fresh, reset := NewProfiler(2, 2, cfg), NewProfiler(2, 2, cfg)
			for _, rec := range records(priorSeed, int(priorLen%2048)) {
				reset.replay(rec)
			}
			reset.Reset()
			for i, rec := range records(seed, int(n%2048)) {
				fresh.replay(rec)
				reset.replay(rec)
				if got, want := reset.Inputs(), fresh.Inputs(); got != want || reset.Samples() != fresh.Samples() {
					t.Fatalf("sectors=%d, record %d after a %d-record window: reset profiler reads %+v (%d samples), fresh %+v (%d)",
						sectors, i, priorLen%2048, got, reset.Samples(), want, fresh.Samples())
				}
			}
		}
	})
}
