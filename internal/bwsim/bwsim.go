// Package bwsim provides the two primitives every bandwidth-limited
// component of the simulator is built from: token buckets that meter
// bytes-per-cycle capacity, and bounded FIFO queues with cheap ring-buffer
// semantics. NoC ports, inter-chip links, LLC slice pipelines and DRAM
// channels are all a (queue, bucket) pair.
//
// The constructors return values, not pointers: a component embeds its
// primitives in one record per port, link or channel and keeps the records
// in one slice, so the per-cycle loop that decides whether a port has work
// reads one cache line instead of chasing a pointer per primitive. The
// methods have pointer receivers — call them on the addressable field or
// slice element, never on a copy.
package bwsim

import "fmt"

// TokenBucket meters a resource with a sustained rate of BytesPerCycle and
// a burst ceiling. Refill once per cycle, then spend tokens to move
// messages. A zero-valued bucket is unusable; use NewBucket.
type TokenBucket struct {
	bytesPerCycle float64
	burst         float64
	credit        float64
}

// NewBucket returns a bucket with the given sustained rate. The burst cap is
// two cycles' worth of bandwidth (at least one message of any size moves
// eventually because Take accepts a partial debt of up to one burst).
func NewBucket(bytesPerCycle float64) TokenBucket {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("bwsim: non-positive bandwidth %v", bytesPerCycle))
	}
	return TokenBucket{
		bytesPerCycle: bytesPerCycle,
		burst:         2 * bytesPerCycle,
		credit:        bytesPerCycle,
	}
}

// Rate returns the sustained bytes/cycle of the bucket.
func (b *TokenBucket) Rate() float64 { return b.bytesPerCycle }

// SetRate changes the sustained rate (sensitivity sweeps reconfigure link
// bandwidth between runs; fault injection degrades it mid-run). A rate of
// exactly 0 disables the resource: credit is clamped to zero and never
// refills, so CanTake stays false until a later SetRate restores bandwidth.
// Accumulated debt (negative credit) survives rate changes.
func (b *TokenBucket) SetRate(bytesPerCycle float64) {
	if bytesPerCycle < 0 {
		panic(fmt.Sprintf("bwsim: negative bandwidth %v", bytesPerCycle))
	}
	b.bytesPerCycle = bytesPerCycle
	b.burst = 2 * bytesPerCycle
	if b.credit > b.burst {
		b.credit = b.burst
	}
}

// Refill adds one cycle of credit, capped at the burst ceiling. Call exactly
// once per simulated cycle.
func (b *TokenBucket) Refill() {
	b.credit += b.bytesPerCycle
	if b.credit > b.burst {
		b.credit = b.burst
	}
}

// Advance adds dt cycles of credit at once, capped at the burst ceiling —
// equivalent to dt consecutive Refill calls (the cap makes them identical).
// Components that skipped idle cycles use it to catch up lazily.
func (b *TokenBucket) Advance(dt int64) {
	if dt <= 0 {
		return
	}
	b.credit += float64(dt) * b.bytesPerCycle
	if b.credit > b.burst {
		b.credit = b.burst
	}
}

// CanTake reports whether a message of n bytes may move this cycle. To keep
// large messages from deadlocking on narrow links, a message may move
// whenever credit is positive; it then drives the credit negative, which
// stalls the link for the appropriate number of later cycles. This models a
// multi-cycle serialization of a long packet.
func (b *TokenBucket) CanTake() bool { return b.credit > 0 }

// Take spends n bytes of credit. It must only be called after CanTake
// returned true this cycle.
func (b *TokenBucket) Take(n int) {
	b.credit -= float64(n)
}

// Credit returns the current credit, for tests and debugging.
func (b *TokenBucket) Credit() float64 { return b.credit }

// AtCap reports whether the credit sits at the burst ceiling. Advance and
// Refill clamp to the ceiling and nothing else raises credit, so Advance on
// an at-cap bucket is a no-op — per-cycle loops use this to skip the refill
// of idle resources without changing the credit's float history.
func (b *TokenBucket) AtCap() bool { return b.credit >= b.burst }

// Queue is a bounded FIFO of T backed by a growable power-of-two ring
// buffer, so the wraparound index is a mask instead of a modulo (the queues
// sit on the per-cycle hot path of every NoC port and ring link). The bound
// is a back-pressure signal, not a hard allocation limit: Full tells the
// producer to stall, while Push always succeeds so that in-flight messages
// are never dropped.
type Queue[T any] struct {
	buf   []T // length is always zero or a power of two
	head  int
	n     int
	bound int
}

// NewQueue returns a queue whose Full threshold is bound entries.
// bound <= 0 means unbounded.
func NewQueue[T any](bound int) Queue[T] {
	capHint := bound
	if capHint <= 0 || capHint > 1024 {
		capHint = 16
	}
	return Queue[T]{buf: make([]T, ceilPow2(capHint)), bound: bound}
}

// ceilPow2 returns the smallest power of two >= n, for n >= 1.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue holds no entries.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// Full reports whether the queue has reached its back-pressure bound.
func (q *Queue[T]) Full() bool { return q.bound > 0 && q.n >= q.bound }

// Bound returns the configured back-pressure threshold (0 = unbounded).
func (q *Queue[T]) Bound() int { return q.bound }

// Push appends v. It always succeeds; callers honoring back-pressure should
// consult Full before producing new work.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest entry. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Peek returns the oldest entry without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// grow doubles the buffer (power-of-two sizes stay powers of two; an empty
// zero-value queue starts at 8).
func (q *Queue[T]) grow() {
	nb := make([]T, max(len(q.buf)*2, 8))
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

// DelayLine schedules items to become visible a fixed number of cycles in
// the future; DRAM access latency and L1 hit latency use it. Items inserted
// at cycle c with delay d pop at cycle c+d in insertion order.
type DelayLine[T any] struct {
	entries Queue[delayEntry[T]]
}

type delayEntry[T any] struct {
	due int64
	v   T
}

// NewDelayLine returns an empty delay line. The pre-sized buffer length
// must be a power of two (Queue indexes with a mask).
func NewDelayLine[T any]() DelayLine[T] {
	return DelayLine[T]{entries: Queue[delayEntry[T]]{buf: make([]delayEntry[T], 16)}}
}

// Len returns the number of in-flight items.
func (d *DelayLine[T]) Len() int { return d.entries.Len() }

// Insert schedules v to emerge at cycle now+delay. delay must be
// non-decreasing across inserts at the same cycle for FIFO emergence
// (all users of DelayLine use a constant delay, which satisfies this).
func (d *DelayLine[T]) Insert(now int64, delay int64, v T) {
	d.entries.Push(delayEntry[T]{due: now + delay, v: v})
}

// NextDue returns the due cycle of the oldest in-flight item; ok is false
// when the line is empty. Cycle loops use it to find the next cycle any
// progress is possible (idle-cycle fast-forward).
func (d *DelayLine[T]) NextDue() (due int64, ok bool) {
	e, ok := d.entries.Peek()
	return e.due, ok
}

// MinDue scans every in-flight item for the earliest due cycle: what NextDue
// reports from the head alone while inserts keep the line ordered. Invariant
// tests compare the two between simulated cycles; nothing else calls it.
func (d *DelayLine[T]) MinDue() (due int64, ok bool) {
	q := &d.entries
	for i := 0; i < q.n; i++ {
		if e := &q.buf[(q.head+i)&(len(q.buf)-1)]; !ok || e.due < due {
			due, ok = e.due, true
		}
	}
	return due, ok
}

// HeadDue reports whether the oldest in-flight item's due cycle has arrived.
// It is the cheap half of a pop — small enough to inline at the call site, so
// the common answer, "not yet", costs a compare instead of a call into the
// generic PopDue.
func (d *DelayLine[T]) HeadDue(now int64) bool {
	q := &d.entries
	return q.n > 0 && q.buf[q.head].due <= now
}

// PopDue removes and returns the oldest item whose due cycle has arrived.
// Loops that usually find nothing due guard it with HeadDue.
func (d *DelayLine[T]) PopDue(now int64) (v T, ok bool) {
	if !d.HeadDue(now) {
		return v, false
	}
	e, _ := d.entries.Pop()
	return e.v, true
}
