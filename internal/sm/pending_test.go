package sm

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/memsys"
	"repro/internal/workload"
)

// poolStream is a warp stream drawing lines from a pool small enough that
// warps of one SM keep missing on each other's outstanding lines.
type poolStream struct {
	rng  *rand.Rand
	left int64
}

func (p *poolStream) Len() int64 { return p.left }

func (p *poolStream) Next() (workload.Access, bool) {
	if p.left == 0 {
		return workload.Access{}, false
	}
	p.left--
	a := workload.Access{Line: uint64(p.rng.Intn(96)), Kind: memsys.Read, Gap: p.rng.Intn(3)}
	if p.rng.Intn(8) == 0 {
		a.Kind = memsys.Write
	}
	return a, true
}

// TestPendingMatchesMapOracle drives an SM for 20,000 seeded steps of Issue
// and Receive against the structure its miss file replaced: a map from line
// to the warps blocked on it, in merge order. After every step the file
// holds exactly the oracle's lines (never more than one per warp), a Receive
// unblocks exactly the oracle's warps, and a Receive of a line nobody waits
// on still fills the L1 and unblocks nobody.
func TestPendingMatchesMapOracle(t *testing.T) {
	s := New(Config{Chip: 1, Index: 2, L1Lines: 32, L1Ways: 8, Geom: testGeom, Sectors: 1})
	streams := make([]workload.AccessStream, 8)
	for w := range streams {
		streams[w] = &poolStream{rng: rand.New(rand.NewSource(int64(w))), left: 1 << 20}
	}
	s.LoadStreams(streams)
	rng := rand.New(rand.NewSource(7))
	oracle := map[uint64][]int{}
	var merged, strays int

	receive := func(now int64, line uint64) {
		t.Helper()
		blockedBefore := make([]bool, len(s.warps))
		for i := range s.warps {
			blockedBefore[i] = s.warps[i].blocked
		}
		want := oracle[line]
		delete(oracle, line)
		got := s.Receive(now, &memsys.Request{Line: line, Kind: memsys.Read, SrcChip: s.Chip()})
		if got != len(want) {
			t.Fatalf("cycle %d: Receive(%d) unblocked %d warps, oracle %d", now, line, got, len(want))
		}
		if s.l1.FindLine(line) < 0 {
			t.Fatalf("cycle %d: Receive(%d) did not fill the L1", now, line)
		}
		for _, wi := range want {
			if s.warps[wi].blocked {
				t.Fatalf("cycle %d: warp %d still blocked after its line %d returned", now, wi, line)
			}
			blockedBefore[wi] = false
		}
		for i := range s.warps {
			if s.warps[i].blocked != blockedBefore[i] {
				t.Fatalf("cycle %d: Receive(%d) changed warp %d, which was not waiting on it", now, line, i)
			}
		}
	}

	for now := int64(1); now <= 20000; now++ {
		next := make([]uint64, len(s.warps))
		for i := range s.warps {
			next[i] = s.warps[i].next.Line
		}
		switch res := s.Issue(now, rng.Intn(4) != 0); {
		case res.Merged:
			oracle[next[res.Warp]] = append(oracle[next[res.Warp]], res.Warp)
			merged++
		case res.Req != nil && res.Req.Kind == memsys.Read:
			if _, dup := oracle[res.Req.Line]; dup {
				t.Fatalf("cycle %d: second primary miss on pending line %d", now, res.Req.Line)
			}
			oracle[res.Req.Line] = []int{res.Warp}
		}

		if len(oracle) > 0 && rng.Intn(3) == 0 {
			lines := make([]uint64, 0, len(oracle))
			for l := range oracle {
				lines = append(lines, l)
			}
			sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
			receive(now, lines[rng.Intn(len(lines))])
		}
		if rng.Intn(50) == 0 {
			stray := uint64(1)<<40 + uint64(now) // no stream reaches this line
			receive(now, stray)
			strays++
		}

		if s.Outstanding() != len(oracle) || s.Outstanding() > len(s.warps) {
			t.Fatalf("cycle %d: %d lines outstanding, oracle %d, warps %d", now, s.Outstanding(), len(oracle), len(s.warps))
		}
		for _, p := range s.pending {
			want := oracle[p.line]
			i := 0
			for wi := p.head; wi >= 0; wi = s.waitNext[wi] {
				if i >= len(want) || want[i] != int(wi) {
					t.Fatalf("cycle %d: line %d waiter chain diverges from oracle %v at position %d", now, p.line, want, i)
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("cycle %d: line %d chains %d warps, oracle %v", now, p.line, i, want)
			}
		}
	}
	if merged == 0 || strays == 0 {
		t.Fatalf("stream exercised %d merges and %d stray receives", merged, strays)
	}
}
