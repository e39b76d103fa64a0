// Package cluster is the distributed sweep fabric: a saccoord coordinator
// that owns job placement over a fleet of sacd workers, and the worker-side
// Agent that registers with it.
//
// Placement is a consistent-hash ring over result-store cache keys
// (store.KeyAt content addresses), so the same simulation cell always lands
// on the same worker while the fleet is stable — its warm result store and
// in-process singleflight then absorb duplicates locally. The coordinator
// layers a fleet-wide singleflight on top (two clients submitting the same
// cell through different paths share one execution) and steals jobs from
// workers that die, lapse, or miss their deadline. Stealing is safe because
// results are content-addressed and idempotent: a duplicate completion
// collapses into the same store object.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// vnodes is the virtual-node count per member. 64 points per worker keeps
// the expected per-worker share within ~±25% of fair at fleet sizes up to 16
// while keeping ring rebuilds trivially cheap.
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by a
// member.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring mapping cache keys to member IDs. All
// methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

// NewRing returns an empty ring. Its argument is ignored; it stays only
// because bench/ calls NewRing(0), and goes with ROADMAP item 1.
func NewRing(int) *Ring {
	return &Ring{members: make(map[string]struct{})}
}

// pointHash places one virtual node: sha256("<id>#<i>") folded to 64 bits.
// The hash is deterministic, so placement (and the property tests pinning
// its balance and stability bounds) never depends on process state.
func pointHash(id string, i int) uint64 {
	sum := sha256.Sum256([]byte(id + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// KeyHash maps a cache key to its ring position. Store keys are already hex
// SHA-256 digests, so the first 16 hex digits are 64 uniform bits and parse
// directly; anything else (tests, foreign keys) is hashed first.
func KeyHash(key string) uint64 {
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return v
		}
	}
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (id must be non-empty); re-adding is a no-op, so a
// re-registering worker never doubles its share.
func (r *Ring) Add(id string) {
	if id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; ok {
		return
	}
	r.members[id] = struct{}{}
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{pointHash(id, i), id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a member; removing an absent member is a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the member IDs in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Owner returns the member owning key: the first virtual node at or after
// the key's position, wrapping at the top of the circle. ok is false on an
// empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	succ := r.Successors(key, 1)
	if len(succ) == 0 {
		return "", false
	}
	return succ[0], true
}

// Successors returns up to n distinct members in ring order starting at the
// key's owner. The order is the steal order: when the owner is unhealthy or
// dies, the next successor inherits the key, which is exactly the member
// that would own it if the owner left the ring — placement under failure
// matches placement after rebalance.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := KeyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.id]; dup {
			continue
		}
		seen[p.id] = struct{}{}
		out = append(out, p.id)
	}
	return out
}

// String renders the ring for logs: member count and point count.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring{%d members, %d points}", len(r.members), len(r.points))
}
