package cache

import (
	"testing"

	"repro/internal/memsys"
)

func req(id uint64, line uint64) *memsys.Request {
	return &memsys.Request{ID: id, Line: line, Kind: memsys.Read}
}

func TestMSHRPrimaryAndSecondary(t *testing.T) {
	m := NewMSHR(4)
	r1, r2, r3 := req(1, 10), req(2, 10), req(3, 20)
	if !m.Allocate(r1) {
		t.Fatal("first miss should be primary")
	}
	if m.Allocate(r2) {
		t.Fatal("same-line miss should merge")
	}
	if !m.Allocate(r3) {
		t.Fatal("different line should be primary")
	}
	if m.Len() != 2 || m.Primary != 2 || m.Secondary != 1 {
		t.Fatalf("len=%d primary=%d secondary=%d", m.Len(), m.Primary, m.Secondary)
	}
	if !m.Lookup(10) || m.Lookup(30) {
		t.Fatal("Lookup wrong")
	}
}

func TestMSHRFillReleasesWaiters(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(req(1, 10))
	w1, w2 := req(2, 10), req(3, 10)
	m.Allocate(w1)
	m.Allocate(w2)
	waiters := m.Fill(10)
	if len(waiters) != 2 || waiters[0] != w1 || waiters[1] != w2 {
		t.Fatalf("waiters = %v", waiters)
	}
	if m.Len() != 0 {
		t.Fatal("entry not removed")
	}
	if got := m.Fill(10); got != nil {
		t.Fatal("double fill returned waiters")
	}
}

func TestMSHRFullBackPressure(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(req(1, 1))
	m.Allocate(req(2, 2))
	if !m.Full() {
		t.Fatal("MSHR should be full")
	}
	// Secondary misses may still merge while full.
	if m.Allocate(req(3, 1)) {
		t.Fatal("merge while full should not be primary")
	}
	m.NoteStall()
	if m.StallFull != 1 {
		t.Fatal("stall not counted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("primary allocate past capacity did not panic")
		}
	}()
	m.Allocate(req(4, 3))
}

func TestNewMSHRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHR(0) did not panic")
		}
	}()
	NewMSHR(0)
}
