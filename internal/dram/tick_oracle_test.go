package dram

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// loopTick is Tick as it was before the partition kept hot and nextDue: with
// anything pending it visits every channel on every call. Kept as the oracle
// of TestTickMatchesChannelLoop; it reads and writes only the state the
// shipped Tick shared with it.
func loopTick(p *Partition, now int64, lineBytes int, done func(*memsys.Request)) {
	if p.pending == 0 {
		p.lastRef = now
		return
	}
	dt := now - p.lastRef
	p.lastRef = now
	for c := range p.chans {
		ch := &p.chans[c]
		if ch.bucket.AtCap() && ch.queue.Empty() && ch.inFlight.Len() == 0 {
			continue
		}
		for {
			req, ok := ch.inFlight.PopDue(now)
			if !ok {
				break
			}
			p.pending--
			done(req)
		}
		ch.bucket.Advance(dt)
		for !ch.queue.Empty() && ch.bucket.CanTake() {
			req, _ := ch.queue.Pop()
			ch.bucket.Take(lineBytes)
			p.BytesMoved += int64(lineBytes)
			ch.bytes += int64(lineBytes)
			if req.Kind == memsys.Write {
				p.Writes++
			} else {
				p.Reads++
			}
			ch.inFlight.Insert(now, p.cfg.Latency, req)
		}
	}
}

// loopNextEvent is NextEvent as it was when it peeked every channel's delay
// line instead of reading nextDue.
func loopNextEvent(p *Partition, now int64) int64 {
	if p.pending == 0 {
		return -1
	}
	next := int64(-1)
	for c := range p.chans {
		ch := &p.chans[c]
		if !ch.queue.Empty() {
			return now + 1
		}
		if due, ok := ch.inFlight.NextDue(); ok && (next < 0 || due < next) {
			next = due
		}
	}
	return next
}

// TestTickMatchesChannelLoop drives two partitions through one seeded
// sequence — Enqueue bursts, a channel failing and healing (scale 0, partial,
// 1), gaps in now the way fast-forward leaves
// them, and completions that enqueue a writeback on the partition from inside
// Tick the way a fill's dirty victim does — one with the shipped Tick, one
// with the loop it replaced. Every completion must come out on the same cycle
// in the same order, every bucket's credit must be bit-identical after every
// call, and the shipped partition's hot and nextDue must equal its channels.
func TestTickMatchesChannelLoop(t *testing.T) {
	configs := []Config{
		{Channels: 2, ChannelBW: 54.7, Latency: 200, QueueBound: 64},
		{Channels: 8, ChannelBW: 54.7, Latency: 40, QueueBound: 4},
		{Channels: 3, ChannelBW: 48, Latency: 30, QueueBound: 8},
	}
	const lineBytes = 128
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(300 + ci)))
		type completion struct {
			id  uint64
			now int64
		}
		type side struct {
			p    *Partition
			tick func(now int64, lineBytes int, done func(*memsys.Request))
			got  []completion
		}
		ship, loop := &side{p: New(cfg)}, &side{p: New(cfg)}
		ship.tick = ship.p.Tick
		loop.tick = func(now int64, lb int, done func(*memsys.Request)) { loopTick(loop.p, now, lb, done) }

		var id uint64
		now := int64(0)
		skipped := 0
		for step := 0; step < 30000; step++ {
			now++
			if rng.Intn(40) == 0 {
				now += int64(rng.Intn(3 * int(cfg.Latency))) // an idle span fast-forward skipped
			}
			// The same external events on both sides.
			if rng.Intn(6) == 0 {
				for k := rng.Intn(2 * cfg.Channels); k > 0; k-- {
					ch := rng.Intn(cfg.Channels)
					if !ship.p.CanAccept(ch) {
						continue
					}
					id++
					kind := memsys.Read
					if rng.Intn(3) == 0 {
						kind = memsys.Write
					}
					for _, s := range []*side{ship, loop} {
						s.p.Enqueue(&memsys.Request{Line: id, Kind: kind, Channel: ch})
					}
				}
			}
			if rng.Intn(400) == 0 {
				ch := rng.Intn(cfg.Channels)
				scale := []float64{0, 0.25, 1}[rng.Intn(3)]
				if ship.p.ChannelScale(ch) == 0 {
					scale = 1 // a failed channel heals: 0 -> 1
				}
				ship.p.SetChannelScale(ch, scale)
				loop.p.SetChannelScale(ch, scale)
			}

			if ship.p.pending > 0 && ship.p.hot == 0 && now < ship.p.nextDue {
				skipped++ // this call returns before the channel loop
			}
			// Whether a completion spawns a writeback, and where, must not
			// depend on which side asks: decide it per request, by the line
			// that tags it.
			for _, s := range []*side{ship, loop} {
				s := s
				s.tick(now, lineBytes, func(req *memsys.Request) {
					s.got = append(s.got, completion{req.Line, now})
					if req.Line%5 == 0 && req.Line < 1<<40 {
						ch := int(req.Line/5) % cfg.Channels // often a channel Tick has already passed
						s.p.Enqueue(&memsys.Request{Line: req.Line + 1<<40, Kind: memsys.Write, Channel: ch})
					}
				})
			}

			if len(ship.got) != len(loop.got) {
				t.Fatalf("cfg %d cycle %d: %d completions, the channel loop has %d", ci, now, len(ship.got), len(loop.got))
			}
			for i := len(ship.got) - 1; i >= 0 && ship.got[i].now == now; i-- {
				if ship.got[i] != loop.got[i] {
					t.Fatalf("cfg %d cycle %d: completion %d is %+v, the channel loop has %+v", ci, now, i, ship.got[i], loop.got[i])
				}
			}
			a, b := ship.p, loop.p
			if a.Pending() != b.Pending() || a.Reads != b.Reads || a.Writes != b.Writes || a.BytesMoved != b.BytesMoved {
				t.Fatalf("cfg %d cycle %d: pending/reads/writes/bytes %d/%d/%d/%d, the channel loop has %d/%d/%d/%d",
					ci, now, a.Pending(), a.Reads, a.Writes, a.BytesMoved, b.Pending(), b.Reads, b.Writes, b.BytesMoved)
			}
			for c := range a.chans {
				ca, cb := &a.chans[c], &b.chans[c]
				if math.Float64bits(ca.bucket.Credit()) != math.Float64bits(cb.bucket.Credit()) {
					t.Fatalf("cfg %d cycle %d channel %d: credit %v, the channel loop has %v", ci, now, c, ca.bucket.Credit(), cb.bucket.Credit())
				}
				if ca.queue.Len() != cb.queue.Len() || ca.inFlight.Len() != cb.inFlight.Len() {
					t.Fatalf("cfg %d cycle %d channel %d: %d queued %d in flight, the channel loop has %d and %d",
						ci, now, c, ca.queue.Len(), ca.inFlight.Len(), cb.queue.Len(), cb.inFlight.Len())
				}
			}
			if got, want := a.NextEvent(now), loopNextEvent(b, now); got != want {
				t.Fatalf("cfg %d cycle %d: NextEvent %d, peeking every channel says %d", ci, now, got, want)
			}
			if err := a.CheckActivity(); err != nil {
				t.Fatalf("cfg %d cycle %d: %v", ci, now, err)
			}
		}
		if len(ship.got) < 1000 || skipped == 0 {
			t.Fatalf("cfg %d: %d completions, %d calls returned before the loop; the sequence is too light to prove anything", ci, len(ship.got), skipped)
		}
	}
}
