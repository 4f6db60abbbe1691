package engine

// lru is a least-recently-used table over dense keys: key (region, n) with
// n in [0, width). The controller builds two of them.
//
// The tree-node cache (Table II: 32 KB "MMT Cache") keys a node by its flat
// index in tree.Layout and is sized in bytes, since nodes at different
// levels have different sizes; a table of capacity <= 0 holds nothing.
//
// The SoC root table (Table II: "MMT Roots in SoC", 8 KB on the Gem5
// testbed) has width 1 and unit sizes. When more MMTs are live than it
// holds, roots are mounted on demand, Penglai-style [25] — the scalability
// path §VII points to; a mount costs a meta-zone access plus a verification
// of the sealed root copy, charged in Controller.chargePath. Built pinned,
// a table of capacity <= 0 holds every root.
//
// Residency is a direct table, one int32 per key, a row per region made on
// the region's first touch (the trace-driven experiments drive Access with
// virtual region numbers beyond mem.Regions()): lookup is an array index
// and invalidateRegion a row walk. Recency is one intrusive list across all
// regions, threaded through a pool whose slots recycle through a free
// list, so the steady-state hit/miss/evict cycle allocates nothing and the
// hit/miss sequence — hence every cycle-domain metric derived from it — is
// that of a flat LRU.
type lru struct {
	capacity int  // in size units
	pinned   bool // what touch reports when capacity <= 0
	width    int
	used     int       // size units resident
	rows     [][]int32 // [region][n]: pool slot + 1; 0 = not resident
	pool     []lruEntry
	free     int32 // recycled slots, linked through next
	head     int32 // most recently used
	tail     int32 // least recently used
}

type lruEntry struct {
	region, n, size int
	prev, next      int32 // pool slots; nilIdx terminates
}

const nilIdx = int32(-1)

func newLRU(capacity, width int, pinned bool) *lru {
	return &lru{capacity: capacity, pinned: pinned, width: width, free: nilIdx, head: nilIdx, tail: nilIdx}
}

// unlink takes slot i out of the recency list.
func (c *lru) unlink(i int32) {
	e := &c.pool[i]
	if e.prev != nilIdx {
		c.pool[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilIdx {
		c.pool[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot i in as the most recently used entry.
func (c *lru) pushFront(i int32) {
	e := &c.pool[i]
	e.prev, e.next = nilIdx, c.head
	if c.head != nilIdx {
		c.pool[c.head].prev = i
	}
	c.head = i
	if c.tail == nilIdx {
		c.tail = i
	}
}

// drop removes resident slot i and recycles it.
func (c *lru) drop(i int32) {
	e := &c.pool[i]
	c.unlink(i)
	c.rows[e.region][e.n] = 0
	c.used -= e.size
	e.next, c.free = c.free, i
}

// touch reports whether key (region, n) was resident, inserting it (and
// evicting LRU victims) if it was not. This matches the hardware fetch
// path: a miss always allocates.
func (c *lru) touch(region, n, size int) (hit bool) {
	if c.capacity <= 0 {
		return c.pinned
	}
	for region >= len(c.rows) {
		// The region table grows once to the highest region number
		// touched, then stays (TestCacheGrowthAllocs).
		c.rows = append(c.rows, nil)
	}
	row := c.rows[region]
	if row == nil {
		// One row per region for the table's lifetime; invalidateRegion
		// clears it in place.
		row = make([]int32, c.width)
		c.rows[region] = row
	}
	if i := row[n] - 1; i >= 0 {
		if c.head != i { // already MRU: the splice would be a no-op
			c.unlink(i)
			c.pushFront(i)
		}
		return true
	}
	if size > c.capacity {
		return false // larger than the whole table: uncacheable
	}
	for c.used+size > c.capacity {
		c.drop(c.tail)
	}
	i := c.free
	if i != nilIdx {
		c.free = c.pool[i].next
	} else {
		// The pool grows until the capacity is reached, then every insert
		// recycles through the free list.
		c.pool = append(c.pool, lruEntry{})
		i = int32(len(c.pool) - 1)
	}
	c.pool[i].region, c.pool[i].n, c.pool[i].size = region, n, size
	c.pushFront(i)
	row[n] = i + 1
	c.used += size
	return false
}

// invalidateRegion drops every key of a region (its MMT was invalidated,
// migrated away or reloaded): one walk of the region's own row.
func (c *lru) invalidateRegion(region int) {
	if region >= len(c.rows) {
		return
	}
	for _, v := range c.rows[region] {
		if v != 0 {
			c.drop(v - 1)
		}
	}
}
