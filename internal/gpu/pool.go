package gpu

import (
	"slices"
	"sync"
)

// ShapePools keeps a free list of items per shape: how both rungs reuse what
// one run of a shape allocates — the exact rung's built machine, the estimate
// rung's replay scratch — across runs of that shape. A caller takes an item
// with Get, builds one when Get has none, and Puts it back once nothing reads
// it. Unlike a sync.Pool, nothing is lost to a GC or to another P.
//
// The lists together keep at most as many items as were ever checked out at
// once, over all shapes, so an idle process holds no more than it once ran
// together: a Put that would keep more drops the item put back longest ago,
// whatever its shape. A caller that will not put an item back Drops it, so
// it stops counting as checked out. The zero value is ready to use.
type ShapePools[K comparable, T any] struct {
	mu        sync.Mutex
	free      map[K][]pooled[T] // per shape, in Put order
	n         int               // items free, over all shapes
	out, peak int               // items checked out now, and the most ever at once
	seq       uint64            // Put order
}

type pooled[T any] struct {
	item T
	seq  uint64
}

// Get checks an item of shape k out: a free one, or ok false when there is
// none and the caller builds it.
func (p *ShapePools[K, T]) Get(k K) (item T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out++
	p.peak = max(p.peak, p.out)
	l := p.free[k]
	if len(l) == 0 {
		return item, false
	}
	item = l[len(l)-1].item
	p.drop(k, len(l)-1)
	return item, true
}

// Put checks an item of shape k back in. One that Get never handed out is
// not kept.
func (p *ShapePools[K, T]) Put(k K, item T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out == 0 {
		return
	}
	p.out--
	if p.n >= p.peak {
		p.dropOldest()
	}
	if p.free == nil {
		p.free = make(map[K][]pooled[T])
	}
	p.seq++
	p.free[k] = append(p.free[k], pooled[T]{item, p.seq})
	p.n++
}

// Drop checks in an item that Get handed out and its caller will not put
// back.
func (p *ShapePools[K, T]) Drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out > 0 {
		p.out--
	}
}

// dropOldest drops the item put back longest ago.
func (p *ShapePools[K, T]) dropOldest() {
	var (
		oldest K
		seq    uint64
	)
	for k, l := range p.free {
		if len(l) > 0 && (seq == 0 || l[0].seq < seq) {
			oldest, seq = k, l[0].seq
		}
	}
	p.drop(oldest, 0)
}

// drop removes entry i of shape k's list. An emptied list keeps its array
// for the shape's next Put.
func (p *ShapePools[K, T]) drop(k K, i int) {
	p.free[k] = slices.Delete(p.free[k], i, i+1)
	p.n--
}
