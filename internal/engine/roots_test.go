package engine

import "testing"

// newRootTable builds the unit-sized instantiation engine.New uses for the
// SoC root table; rootTouch mounts region's one key.
func newRootTable(capacity int) *lru { return newLRU(capacity, 1, true) }

func rootTouch(rt *lru, region int) bool { return rt.touch(region, 0, 1) }

func TestRootTableHitMissEvict(t *testing.T) {
	rt := newRootTable(2)
	if rootTouch(rt, 1) {
		t.Fatal("first touch mounted")
	}
	if !rootTouch(rt, 1) {
		t.Fatal("second touch not resident")
	}
	rootTouch(rt, 2)
	rootTouch(rt, 1) // 1 is MRU
	rootTouch(rt, 3) // evicts 2
	if rootTouch(rt, 2) {
		t.Fatal("2 should have been evicted")
	}
	// Re-mounting 2 evicted the LRU entry (1); 3 stays resident.
	if !rootTouch(rt, 3) {
		t.Fatal("3 lost unexpectedly")
	}
	if rootTouch(rt, 1) {
		t.Fatal("1 should have been evicted by 2's re-mount")
	}
}

func TestRootTableUnlimited(t *testing.T) {
	rt := newRootTable(0)
	for i := 0; i < 100; i++ {
		if !rootTouch(rt, i) {
			t.Fatal("unlimited table should always report resident")
		}
	}
}

func TestRootTableEvictExplicit(t *testing.T) {
	rt := newRootTable(4)
	rootTouch(rt, 7)
	rt.invalidateRegion(7)
	if rootTouch(rt, 7) {
		t.Fatal("evicted root still resident")
	}
	rt.invalidateRegion(99) // no-op
}

func TestRootMountsCountedUnderPressure(t *testing.T) {
	// A controller with a 2-entry root table cycling over 4 regions must
	// mount continuously; with a big table, only cold mounts.
	prof := testProfileWithRoots(t, 2*rootEntryBytes)
	c := controllerWith(t, prof)
	for i := 0; i < 40; i++ {
		c.Access(i%4, 0, false)
	}
	if c.Stats().RootMounts < 30 {
		t.Fatalf("RootMounts = %d under thrash, want ~40", c.Stats().RootMounts)
	}

	prof2 := testProfileWithRoots(t, 64*rootEntryBytes)
	c2 := controllerWith(t, prof2)
	for i := 0; i < 40; i++ {
		c2.Access(i%4, 0, false)
	}
	if got := c2.Stats().RootMounts; got != 4 {
		t.Fatalf("RootMounts = %d with ample table, want 4 cold mounts", got)
	}
}

func TestInvalidateEvictsRoot(t *testing.T) {
	prof := testProfileWithRoots(t, 64*rootEntryBytes)
	c := controllerWith(t, prof)
	c.Access(0, 0, false)
	before := c.Stats().RootMounts
	c.Invalidate(0)
	c.Access(0, 0, false)
	if c.Stats().RootMounts != before+1 {
		t.Fatal("invalidate did not evict the root")
	}
}
