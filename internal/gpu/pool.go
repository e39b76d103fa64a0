package gpu

import "sync"

// ShapePools keeps one sync.Pool per shape: how both rungs reuse what one
// run of a shape allocates — the exact rung's built machine, the estimate
// rung's replay scratch — across runs of that shape. A caller takes an item
// from Of(shape).Get, builds one when the pool has none, and puts it back
// once nothing reads it. The zero value is ready to use.
type ShapePools[K comparable] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool
}

// Of returns the pool of shape k.
func (p *ShapePools[K]) Of(k K) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pool := p.pools[k]
	if pool == nil {
		if p.pools == nil {
			p.pools = make(map[K]*sync.Pool)
		}
		pool = new(sync.Pool)
		p.pools[k] = pool
	}
	return pool
}
