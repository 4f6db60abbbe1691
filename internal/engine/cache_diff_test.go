package engine

import (
	"math/rand"
	"testing"
)

// lruModel is the naive reference: a recency slice searched linearly.
type lruModel struct {
	capacity int
	order    []lruModelEntry // order[0] is LRU, last is MRU
}

type lruModelEntry struct{ region, n, size int }

func (m *lruModel) used() int {
	u := 0
	for _, e := range m.order {
		u += e.size
	}
	return u
}

func (m *lruModel) touch(region, n, size int) bool {
	for i, e := range m.order {
		if e.region == region && e.n == n {
			m.order = append(append(m.order[:i:i], m.order[i+1:]...), e)
			return true
		}
	}
	if size > m.capacity {
		return false
	}
	for m.used()+size > m.capacity {
		m.order = m.order[1:]
	}
	m.order = append(m.order, lruModelEntry{region, n, size})
	return false
}

func (m *lruModel) invalidateRegion(region int) {
	kept := m.order[:0]
	for _, e := range m.order {
		if e.region != region {
			kept = append(kept, e)
		}
	}
	m.order = kept
}

// TestCacheLRUDifferential drives both instantiations of the one LRU type —
// the byte-sized node cache and the unit-sized root table, built as
// engine.New builds them — against the naive model through a random
// touch/invalidate schedule, checking every hit/miss verdict, the resident
// count and the resident size. The cycle-domain sidecars derive from
// exactly this hit/miss sequence, so the model equivalence here is what
// keeps them byte-identical. Region numbers reach far above any memory's
// region count (the trace-driven experiments pass virtual ones), and the
// pool must end no larger than the peak residency: invalidated and evicted
// slots are recycled, not leaked.
func TestCacheLRUDifferential(t *testing.T) {
	regions := []int{0, 1, 2, 3, 65, 4099}
	for _, tc := range []struct {
		name            string
		capacity, width int
		pinned          bool
		size            func(rng *rand.Rand) int
	}{
		{"node cache", 1024, 24, false, func(rng *rand.Rand) int { return 16 + 16*rng.Intn(3) }},
		{"root table", 3, 1, true, func(*rand.Rand) int { return 1 }},
	} {
		rng := rand.New(rand.NewSource(42))
		c := newLRU(tc.capacity, tc.width, tc.pinned)
		m := &lruModel{capacity: tc.capacity}
		peak := 0
		for op := 0; op < 30000; op++ {
			region := regions[rng.Intn(len(regions))]
			if rng.Intn(50) == 0 {
				c.invalidateRegion(region)
				m.invalidateRegion(region)
			} else {
				n, size := rng.Intn(tc.width), tc.size(rng)
				if got, want := c.touch(region, n, size), m.touch(region, n, size); got != want {
					t.Fatalf("%s op %d: touch(%d, %d) hit=%v want %v", tc.name, op, region, n, got, want)
				}
			}
			if resident(c) != len(m.order) || c.used != m.used() {
				t.Fatalf("%s op %d: len/size %d/%d want %d/%d", tc.name, op, resident(c), c.used, len(m.order), m.used())
			}
			peak = max(peak, len(m.order))
		}
		if len(c.pool) != peak {
			t.Errorf("%s: pool grew to %d slots, peak residency %d", tc.name, len(c.pool), peak)
		}
		c.invalidateRegion(1 << 20) // a region never touched: no-op, no row made
		if len(c.rows) != 4100 {
			t.Errorf("%s: %d rows, want 4100", tc.name, len(c.rows))
		}
	}
}
