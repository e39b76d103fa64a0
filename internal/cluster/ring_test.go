package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// testKeys returns n deterministic hex keys shaped like store cache keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// sha256-shaped: KeyHash parses the first 16 hex chars, and hashing
		// the decimal index through pointHash's sha256 gives uniform keys.
		keys[i] = fmt.Sprintf("%016x%048x", pointHash("key", i), 0)
	}
	return keys
}

func ringOf(n int) *Ring {
	r := NewRing(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("worker-%d", i))
	}
	return r
}

// TestRingBalance pins the load-balance property: for every fleet size from
// 2 to 16 workers, no worker owns more than 2x its fair share of 20k keys
// (nor less than a quarter of it). vnodes is sized to keep this
// bound; shrinking it will fail here, not in production skew.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for n := 2; n <= 16; n++ {
		r := ringOf(n)
		counts := make(map[string]int)
		for _, k := range keys {
			id, ok := r.Owner(k)
			if !ok {
				t.Fatalf("n=%d: no owner for %s", n, k)
			}
			counts[id]++
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d workers own keys", n, len(counts))
		}
		fair := float64(len(keys)) / float64(n)
		for id, got := range counts {
			if load := float64(got) / fair; load > 2.0 || load < 0.25 {
				t.Errorf("n=%d: %s owns %d keys (%.2fx fair share %.0f), outside [0.25, 2.0]",
					n, id, got, load, fair)
			}
		}
	}
}

// TestRingMinimalMovementOnJoin pins consistency: adding one worker to an
// N-worker ring must move at most ~1/(N+1) of keys (x1.5 slack for vnode
// variance), and every moved key must move TO the joiner — a join never
// reshuffles keys between existing workers.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	keys := testKeys(20000)
	for n := 2; n <= 16; n++ {
		r := ringOf(n)
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k], _ = r.Owner(k)
		}
		joiner := "worker-joiner"
		r.Add(joiner)
		moved := 0
		for _, k := range keys {
			after, _ := r.Owner(k)
			if after == before[k] {
				continue
			}
			moved++
			if after != joiner {
				t.Fatalf("n=%d: key %.16s moved %s -> %s, not to the joiner",
					n, k, before[k], after)
			}
		}
		bound := int(1.5 * float64(len(keys)) / float64(n+1))
		if moved > bound {
			t.Errorf("n=%d: join moved %d/%d keys, bound %d", n, moved, len(keys), bound)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved no keys", n)
		}
	}
}

// TestRingMinimalMovementOnLeave pins the mirror property: removing one
// worker moves exactly the keys it owned (its ~1/N share), and nothing else.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	keys := testKeys(20000)
	for n := 2; n <= 16; n++ {
		r := ringOf(n)
		leaver := "worker-0"
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k], _ = r.Owner(k)
		}
		r.Remove(leaver)
		moved := 0
		for _, k := range keys {
			after, _ := r.Owner(k)
			if before[k] == leaver {
				moved++
				if after == leaver {
					t.Fatalf("n=%d: removed worker still owns %.16s", n, k)
				}
				continue
			}
			if after != before[k] {
				t.Fatalf("n=%d: key %.16s owned by surviving %s moved to %s",
					n, k, before[k], after)
			}
		}
		bound := int(1.5 * float64(len(keys)) / float64(n))
		if moved > bound {
			t.Errorf("n=%d: leave moved %d/%d keys, bound %d", n, moved, len(keys), bound)
		}
	}
}

// TestRingSuccessorsMatchFailover pins the steal-order property: the first
// successor after the owner is exactly the owner the key gets if the owner
// leaves — stealing lands jobs where a rebalance would have placed them.
func TestRingSuccessorsMatchFailover(t *testing.T) {
	r := ringOf(5)
	for _, k := range testKeys(500) {
		succ := r.Successors(k, 2)
		if len(succ) != 2 {
			t.Fatalf("want 2 successors, got %v", succ)
		}
		r2 := ringOf(5)
		r2.Remove(succ[0])
		next, _ := r2.Owner(k)
		if next != succ[1] {
			t.Fatalf("key %.16s: successor %s but post-removal owner %s", k, succ[1], next)
		}
	}
}

// TestRingBasics covers the small-ring edges: empty ring, single member,
// idempotent add/remove, deterministic checksum.
func TestRingBasics(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner("abc"); ok {
		t.Fatal("empty ring returned an owner")
	}
	if got := r.Successors("abc", 3); got != nil {
		t.Fatalf("empty ring returned successors %v", got)
	}
	r.Add("only")
	r.Add("only") // re-add must not double the share
	if got := len(r.Members()); got != 1 {
		t.Fatalf("members = %d, want 1", got)
	}
	if id, _ := r.Owner("abc"); id != "only" {
		t.Fatalf("owner = %s, want only", id)
	}
	if got, want := r.String(), fmt.Sprintf("ring{1 members, %d points}", vnodes); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	points := slices.Clone(r.points)
	r.Remove("absent")
	if !slices.Equal(r.points, points) {
		t.Fatal("removing an absent member changed the topology")
	}
	r.Remove("only")
	if r.Len() != 0 {
		t.Fatalf("len = %d after removing last member", r.Len())
	}
	if !slices.Equal(ringOf(3).points, ringOf(3).points) {
		t.Fatal("identical rings place their points differently")
	}
}

// TestKeyHash pins the hex fast path against the sha256 fallback boundary.
func TestKeyHash(t *testing.T) {
	if got, want := KeyHash("00000000000000ff"+"aa"), uint64(0xff); got != want {
		t.Fatalf("hex key hash = %#x, want %#x", got, want)
	}
	if KeyHash("not-hex-not-hex-!") == KeyHash("also-not-hex-----") {
		t.Fatal("fallback hashes collided for distinct keys")
	}
	if KeyHash("short") != KeyHash("short") {
		t.Fatal("fallback hash not deterministic")
	}
}
