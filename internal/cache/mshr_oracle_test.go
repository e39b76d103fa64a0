package cache

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// mapMSHR is the map-based MSHR file every run up to PR 14 simulated on,
// kept as the differential oracle for the fixed open-addressed table in
// mshr.go (TestMSHRMatchesMapOracle): same methods, same counters, a Go map
// and a freshly allocated waiter slice per entry.
type mapMSHR struct {
	capacity int
	entries  map[uint64]*mapMSHREntry

	// Counters.
	Primary   int64
	Secondary int64
	StallFull int64
}

type mapMSHREntry struct {
	waiters []*memsys.Request
}

func newMapMSHR(capacity int) *mapMSHR {
	return &mapMSHR{capacity: capacity, entries: make(map[uint64]*mapMSHREntry, capacity)}
}

// Len returns the number of outstanding entries.
func (m *mapMSHR) Len() int { return len(m.entries) }

// Full reports whether a new primary miss cannot allocate.
func (m *mapMSHR) Full() bool { return len(m.entries) >= m.capacity }

// Lookup reports whether a line already has an outstanding miss.
func (m *mapMSHR) Lookup(line uint64) bool {
	_, ok := m.entries[line]
	return ok
}

// Allocate registers a miss for req. It returns primary=true when this is a
// new entry (the caller must forward the request toward memory) and
// primary=false when the request merged into an existing entry (it will be
// released by Fill). Callers must check Full before allocating a primary
// miss; Allocate panics when asked to allocate past capacity, because that
// indicates the back-pressure contract was violated.
func (m *mapMSHR) Allocate(req *memsys.Request) (primary bool) {
	if e, ok := m.entries[req.Line]; ok {
		e.waiters = append(e.waiters, req)
		m.Secondary++
		return false
	}
	if m.Full() {
		panic("cache: MSHR allocate past capacity (back-pressure violated)")
	}
	m.entries[req.Line] = &mapMSHREntry{}
	m.Primary++
	return true
}

// Fill completes the outstanding miss on line, removing the entry and
// returning the merged secondary requests that were waiting for the data
// (possibly empty). The primary request is carried by the caller.
func (m *mapMSHR) Fill(line uint64) []*memsys.Request {
	e, ok := m.entries[line]
	if !ok {
		return nil
	}
	delete(m.entries, line)
	return e.waiters
}

// NoteStall counts a cycle in which a primary miss could not allocate.
func (m *mapMSHR) NoteStall() { m.StallFull++ }

// TestMSHRMatchesMapOracle drives the open-addressed file and the map-based
// one with the same seeded stream of Lookup/Allocate/Fill/Full calls and
// requires every return value, the counters and — the property fillSlice and
// dramDone depend on — the order of every Fill's waiters to agree. Half the
// line pool is chosen to share one home slot, so probe chains form, wrap
// around the table end and are cut by deletions in their middle.
func TestMSHRMatchesMapOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 48, 64} {
		m, o := NewMSHR(capacity), newMapMSHR(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))

		// Colliding lines: all start their probe at the table's last slot.
		pool := make([]uint64, 0, 3*capacity+4)
		last := len(m.slots) - 1
		for line := uint64(1); len(pool) < capacity+2; line++ {
			if m.home(line) == last {
				pool = append(pool, line)
			}
		}
		for len(pool) < cap(pool) {
			pool = append(pool, rng.Uint64()>>20)
		}

		var id uint64
		for step := 0; step < 20000; step++ {
			line := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); {
			case op < 5: // allocate (primary or merge), honouring back-pressure
				if got, want := m.Full(), o.Full(); got != want {
					t.Fatalf("cap %d step %d: Full = %v, oracle %v", capacity, step, got, want)
				}
				if got, want := m.Lookup(line), o.Lookup(line); got != want {
					t.Fatalf("cap %d step %d: Lookup(%d) = %v, oracle %v", capacity, step, line, got, want)
				}
				if o.Full() && !o.Lookup(line) {
					m.NoteStall()
					o.NoteStall()
					continue
				}
				id++
				a, b := req(id, line), req(id, line)
				if got, want := m.Allocate(a), o.Allocate(b); got != want {
					t.Fatalf("cap %d step %d: Allocate(%d) primary = %v, oracle %v", capacity, step, line, got, want)
				}
			case op < 9: // fill (often of a line with no entry)
				got, want := m.Fill(line), o.Fill(line)
				if len(got) != len(want) {
					t.Fatalf("cap %d step %d: Fill(%d) released %d waiters, oracle %d", capacity, step, line, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("cap %d step %d: Fill(%d) waiter %d is request %d, oracle %d (order)", capacity, step, line, i, got[i].ID, want[i].ID)
					}
				}
			default:
				if got, want := m.Lookup(line), o.Lookup(line); got != want {
					t.Fatalf("cap %d step %d: Lookup(%d) = %v, oracle %v", capacity, step, line, got, want)
				}
			}
			if m.Len() != o.Len() || m.Len() != m.Occupied() {
				t.Fatalf("cap %d step %d: Len = %d, occupied slots %d, oracle %d", capacity, step, m.Len(), m.Occupied(), o.Len())
			}
			if m.Primary != o.Primary || m.Secondary != o.Secondary || m.StallFull != o.StallFull {
				t.Fatalf("cap %d step %d: counters %d/%d/%d, oracle %d/%d/%d", capacity, step,
					m.Primary, m.Secondary, m.StallFull, o.Primary, o.Secondary, o.StallFull)
			}
		}
		if m.Primary == 0 || m.Secondary == 0 || m.StallFull == 0 {
			t.Fatalf("cap %d: stream never exercised primary/secondary/stall (%d/%d/%d)", capacity, m.Primary, m.Secondary, m.StallFull)
		}
	}
}

// A Fill's slice stays intact until the file's next Fill, whatever is
// allocated in between — the contract fillSlice and dramDone iterate under.
func TestMSHRFillBufferValidUntilNextFill(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(req(1, 10))
	w := req(2, 10)
	m.Allocate(w)
	got := m.Fill(10)
	for i := uint64(0); i < 4; i++ {
		m.Allocate(req(10+i, 100+i))
		m.Allocate(req(20+i, 100+i))
	}
	if len(got) != 1 || got[0] != w {
		t.Fatalf("Fill buffer changed before the next Fill: %v", got)
	}
}

func TestNewMSHRPanicsPastBound(t *testing.T) {
	NewMSHR(MaxMSHREntries) // at the limit: fine
	defer func() {
		if recover() == nil {
			t.Fatalf("NewMSHR(%d) did not panic", MaxMSHREntries+1)
		}
	}()
	NewMSHR(MaxMSHREntries + 1)
}
