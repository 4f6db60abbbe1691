package engine

import "testing"

// The unit tests key a 16-wide node cache by (region, n).
func newTestCache(capacity int) *lru { return newLRU(capacity, 16, false) }

// resident counts the keys a table holds, from its residency rows.
func resident(c *lru) int {
	n := 0
	for _, row := range c.rows {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

func TestCacheHitMiss(t *testing.T) {
	c := newTestCache(100)
	if c.touch(0, 2, 40) {
		t.Fatal("first touch should miss")
	}
	if !c.touch(0, 2, 40) {
		t.Fatal("second touch should hit")
	}
	if resident(c) != 1 || c.used != 40 {
		t.Fatalf("len=%d used=%d", resident(c), c.used)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newTestCache(100)
	const a, b, d = 1, 2, 3
	c.touch(0, a, 40)
	c.touch(0, b, 40)
	c.touch(0, a, 40) // a is now MRU
	c.touch(0, d, 40) // evicts b (LRU)
	if !c.touch(0, a, 40) {
		t.Fatal("a should still be resident")
	}
	if c.touch(0, b, 40) {
		t.Fatal("b should have been evicted")
	}
	if c.used > 100 {
		t.Fatalf("cache over capacity: %d", c.used)
	}
}

func TestCacheZeroCapacityNeverHits(t *testing.T) {
	c := newTestCache(0)
	if c.touch(0, 1, 8) || c.touch(0, 1, 8) {
		t.Fatal("zero-capacity cache must never hit")
	}
}

func TestCacheOversizedNodeUncacheable(t *testing.T) {
	c := newTestCache(10)
	if c.touch(0, 1, 100) || c.touch(0, 1, 100) {
		t.Fatal("oversized node must not be cached")
	}
	if resident(c) != 0 {
		t.Fatal("oversized node left residue")
	}
}

func TestCacheInvalidateRegion(t *testing.T) {
	c := newTestCache(1000)
	c.touch(0, 1, 10)
	c.touch(1, 1, 10)
	c.touch(0, 2, 10)
	c.invalidateRegion(0)
	if c.touch(0, 1, 10) {
		t.Fatal("region-0 node survived invalidation")
	}
	// The touch above re-inserted it; region 1 must still be resident.
	if !c.touch(1, 1, 10) {
		t.Fatal("region-1 node lost by region-0 invalidation")
	}
}

func TestCacheAccountsBytesAcrossEvictions(t *testing.T) {
	c := newLRU(64, 100, false)
	for i := 0; i < 100; i++ {
		c.touch(0, i, 16)
		if c.used > 64 {
			t.Fatalf("over capacity at %d: %d bytes", i, c.used)
		}
	}
	if resident(c) != 4 {
		t.Fatalf("len = %d, want 4", resident(c))
	}
}

// TestCacheGrowthAllocs pins the table's only allocations: a fresh table's
// first miss grows the region table, the region's row and the entry pool
// by one object each. Hits, misses that evict the one resident entry, and
// the touches a zero-capacity or too-small table answers without
// inserting, allocate nothing.
func TestCacheGrowthAllocs(t *testing.T) {
	var sink *lru
	base := testing.AllocsPerRun(10, func() { sink = newTestCache(100) })
	first := testing.AllocsPerRun(10, func() {
		sink = newTestCache(100)
		sink.touch(0, 1, 40)
	})
	if first-base != 3 {
		t.Fatalf("a fresh table's first miss allocates %v objects, want 3", first-base)
	}

	one, none, small := newTestCache(40), newTestCache(0), newTestCache(10)
	one.touch(0, 1, 40)
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		one.touch(0, 1+n%2, 40) // evicts the other key
		one.touch(0, 1+n%2, 40)
		none.touch(0, 1, 8)
		small.touch(0, 1, 100)
		n++
	}); a != 0 {
		t.Fatalf("steady-state touches allocate %v objects, want 0", a)
	}
}
