package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memsys"
)

// MaxMSHREntries bounds an MSHR file's capacity: the table below is sized
// eagerly at construction, so the capacity a configuration asks for (which
// reaches gpu.Config from the jobs HTTP surface) sizes an allocation.
const MaxMSHREntries = 1024

// MSHR is a miss-status holding register file for one LLC slice. Primary
// misses allocate an entry and travel onward to memory; secondary misses on
// the same line merge into the existing entry and wait for its fill. A full
// MSHR back-pressures the slice: the lookup stage must stall.
//
// The file is a fixed open-addressed table (linear probing, at most half
// full) sized at construction: no hashing through a Go map and no allocation
// per miss. An entry's waiters are a chain, in Allocate order, through one
// arena of nodes the whole file shares; Fill returns the chain's nodes to
// the arena's free list and hands the waiters out in one reused buffer. The
// arena and the buffer grow to the file's working size and stay there.
type MSHR struct {
	slots    []mshrSlot
	nodes    []mshrWaiter      // waiter arena; chains and the free list thread through next
	filled   []*memsys.Request // buffer the last Fill returned
	free     int32             // first free arena node, -1 = none
	capacity int
	n        int
	shift    uint // 64 - log2(len(slots))

	// Counters.
	Primary   int64
	Secondary int64
	StallFull int64
}

type mshrSlot struct {
	line       uint64
	head, tail int32 // waiter chain in the arena, -1 = no waiters
	used       bool
}

type mshrWaiter struct {
	req  *memsys.Request
	next int32
}

// NewMSHR returns an MSHR file with the given entry capacity.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 || capacity > MaxMSHREntries {
		panic(fmt.Sprintf("cache: MSHR capacity must be in 1..%d, got %d", MaxMSHREntries, capacity))
	}
	size := 2
	for size < 2*capacity {
		size <<= 1
	}
	return &MSHR{
		slots:    make([]mshrSlot, size),
		free:     -1,
		capacity: capacity,
		shift:    uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// home is the slot a line's probe sequence starts at. The lines one slice
// sees already agree on the low bits of the PAE hash that picked the slice,
// so the table uses its own multiplicative (Fibonacci) hash of the line.
func (m *MSHR) home(line uint64) int {
	return int(line * 0x9e3779b97f4a7c15 >> m.shift)
}

// find returns the slot holding line, or the empty slot that ends its probe
// sequence (found=false) — where Allocate places a new entry. The table is
// never more than half full, so the probe always terminates.
func (m *MSHR) find(line uint64) (slot int, found bool) {
	mask := len(m.slots) - 1
	i := m.home(line)
	for m.slots[i].used {
		if m.slots[i].line == line {
			return i, true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// Len returns the number of outstanding entries.
func (m *MSHR) Len() int { return m.n }

// Occupied counts the occupied slots by scanning the table. It equals Len
// on an intact table; the cycle loop's invariant tests assert exactly that.
func (m *MSHR) Occupied() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].used {
			n++
		}
	}
	return n
}

// Full reports whether a new primary miss cannot allocate.
func (m *MSHR) Full() bool { return m.n >= m.capacity }

// Lookup reports whether a line already has an outstanding miss.
func (m *MSHR) Lookup(line uint64) bool {
	_, found := m.find(line)
	return found
}

// Allocate registers a miss for req. It returns primary=true when this is a
// new entry (the caller must forward the request toward memory) and
// primary=false when the request merged into an existing entry (it will be
// released by Fill). Callers must check Full before allocating a primary
// miss; Allocate panics when asked to allocate past capacity, because that
// indicates the back-pressure contract was violated.
func (m *MSHR) Allocate(req *memsys.Request) (primary bool) {
	i, found := m.find(req.Line)
	s := &m.slots[i]
	if !found {
		if m.Full() {
			panic("cache: MSHR allocate past capacity (back-pressure violated)")
		}
		*s = mshrSlot{line: req.Line, head: -1, tail: -1, used: true}
		m.n++
		m.Primary++
		return true
	}
	ni := m.free
	if ni >= 0 {
		m.free = m.nodes[ni].next
		m.nodes[ni] = mshrWaiter{req: req, next: -1}
	} else {
		ni = int32(len(m.nodes))
		m.nodes = append(m.nodes, mshrWaiter{req: req, next: -1})
	}
	if s.tail >= 0 {
		m.nodes[s.tail].next = ni
	} else {
		s.head = ni
	}
	s.tail = ni
	m.Secondary++
	return false
}

// Fill completes the outstanding miss on line, removing the entry and
// returning the merged secondary requests that were waiting for the data, in
// Allocate order (possibly empty; nil when the line has no entry). The
// primary request is carried by the caller. The returned slice is a buffer
// of the file's, valid until the file's next Fill.
func (m *MSHR) Fill(line uint64) []*memsys.Request {
	i, found := m.find(line)
	if !found {
		return nil
	}
	out := m.filled[:0]
	for ni := m.slots[i].head; ni >= 0; {
		w := &m.nodes[ni]
		out = append(out, w.req)
		next := w.next
		*w = mshrWaiter{next: m.free}
		m.free = ni
		ni = next
	}
	m.filled = out
	m.n--

	// Backward-shift deletion: close the gap by moving up every later entry
	// of the cluster whose probe sequence passes through it, so no probe
	// chain is cut and no tombstone is left to lengthen later probes.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j] — then it is already at or past its home.
		if h := m.home(m.slots[j].line); (j-h)&mask < (j-i)&mask {
			continue
		}
		m.slots[i] = m.slots[j]
		i = j
	}
	m.slots[i].used = false
	return out
}

// NoteStall counts a cycle in which a primary miss could not allocate.
func (m *MSHR) NoteStall() { m.StallFull++ }
