package dram

import (
	"repro/internal/addr"
	"repro/internal/memsys"
)

// Bank-level timing (optional): when Config.BanksPerChannel > 0, each
// channel models its banks' row buffers. An access to a bank whose row
// buffer holds the target row (a row hit) occupies the bank briefly; a row
// miss pays precharge + activate and occupies it longer. The channel's data
// bus remains the token-bucket above — banks add *occupancy* serialization
// on top of bus bandwidth, which is what makes bank conflicts hurt.
//
// The PAE address mapping exists precisely to spread accesses across banks
// (Liu et al., ISCA 2018); with it enabled the bank model changes little,
// which is the §3.3 justification for B_mem = designed bandwidth. Disable
// PAE-style spreading (or lower BanksPerChannel) to see conflicts emerge.
// The default configurations keep BanksPerChannel = 0: pure bandwidth +
// fixed latency, the model every recorded experiment used.

// BankTiming parametrizes the row-buffer behaviour.
type BankTiming struct {
	RowBytes  int   // row-buffer size (2 KB typical for GDDR6)
	HitBusy   int64 // bank busy cycles on a row hit (CAS burst)
	MissBusy  int64 // bank busy cycles on a row miss (PRE + ACT + CAS)
	HitExtra  int64 // extra response latency on a hit (usually 0)
	MissExtra int64 // extra response latency on a miss
}

// DefaultBankTiming returns GDDR6-flavoured parameters at core clock.
func DefaultBankTiming() BankTiming {
	return BankTiming{
		RowBytes:  2048,
		HitBusy:   4,
		MissBusy:  24,
		MissExtra: 40,
	}
}

// bankState tracks one bank's open row and availability.
type bankState struct {
	openRow int64 // -1 = closed
	readyAt int64 // cycle the bank can accept the next access
}

// banks is the per-channel bank array.
type banks struct {
	state  []bankState
	timing BankTiming

	RowHits   int64
	RowMisses int64
	Conflicts int64 // accesses that waited for a busy bank
}

func newBanks(n int, t BankTiming) *banks {
	b := &banks{timing: t, state: make([]bankState, n)}
	for i := range b.state {
		b.state[i].openRow = -1
	}
	return b
}

// bankOf spreads ROWS across banks (a whole row lives in one bank, as in
// real DRAM; PAE-style hashing keeps consecutive rows apart).
func (b *banks) bankOf(row int64) int {
	return int(addr.Mix64(uint64(row)^0xbabb1e) % uint64(len(b.state)))
}

func (b *banks) rowOf(req *memsys.Request, lineBytes int) int64 {
	return int64(req.Line) * int64(lineBytes) / int64(b.timing.RowBytes)
}

// admit decides whether a request may start its access at cycle now; when
// it may, the bank is reserved and the extra response latency is returned.
func (b *banks) admit(now int64, req *memsys.Request, lineBytes int) (extra int64, ok bool) {
	row := b.rowOf(req, lineBytes)
	bk := &b.state[b.bankOf(row)]
	if bk.readyAt > now {
		b.Conflicts++
		return 0, false
	}
	if bk.openRow == row {
		b.RowHits++
		bk.readyAt = now + b.timing.HitBusy
		return b.timing.HitExtra, true
	}
	b.RowMisses++
	bk.openRow = row
	bk.readyAt = now + b.timing.MissBusy
	return b.timing.MissExtra, true
}

// HitRate returns the row-buffer hit rate.
func (b *banks) HitRate() float64 {
	t := b.RowHits + b.RowMisses
	if t == 0 {
		return 0
	}
	return float64(b.RowHits) / float64(t)
}
