package gpu

import "testing"

// TestShapePoolsKeepPeak: the lists keep every item checked back in, up to
// the most ever checked out at once over all shapes, and nothing Get never
// handed out. A shape gets only its own items back, a Put past the peak
// drops the item put back longest ago, of any shape, and a dropped item no
// longer counts as checked out.
func TestShapePoolsKeepPeak(t *testing.T) {
	var p ShapePools[int, *int]
	get := func(k int) *int {
		t.Helper()
		v, ok := p.Get(k)
		if !ok {
			t.Fatalf("shape %d handed out nothing", k)
		}
		return v
	}
	a := []*int{new(int), new(int), new(int)}
	for range a {
		if _, ok := p.Get(1); ok {
			t.Fatal("an empty shape handed out an item")
		}
	}
	for _, v := range a {
		p.Put(1, v)
	}
	p.Put(1, new(int)) // never checked out
	if _, ok := p.Get(2); ok {
		t.Fatal("shape 2 handed out shape 1's item")
	}
	b := new(int)
	p.Put(2, b) // a fourth free item: a[0], put back first, goes
	if got := get(2); got != b {
		t.Fatal("shape 2 did not get its own item back")
	}
	p.Put(2, b)
	if get(1) != a[2] || get(1) != a[1] {
		t.Fatal("shape 1 did not get its last two items back, newest first")
	}
	if _, ok := p.Get(1); ok {
		t.Fatal("the lists kept more items than were ever checked out at once")
	}
	for range 3 { // a[2], a[1] and the item the last Get left to its caller
		p.Drop()
	}
	p.Put(1, new(int)) // nothing is checked out now
	if _, ok := p.Get(1); ok {
		t.Fatal("a dropped item still counted as checked out")
	}
}
