package tree

import (
	"testing"

	"mmt/internal/crypt"
)

// TestVerifyUpdateAllocFree pins the steady-state integrity-tree paths at
// zero allocations per access: VerifyPath (read path), Update without
// overflow and UpdateRun over a whole leaf (write path) and LeafCounter. The batched NodeMACBatch verify
// and the tree scratch exist for exactly this.
func TestVerifyUpdateAllocFree(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("alloc")))
	const guaddr = 0x9000
	tr, err := New(ForLevels(3), e, guaddr)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the lazily-sized scratch buffers.
	if err := tr.VerifyPath(e, guaddr, 0); err != nil {
		t.Fatal(err)
	}
	tr.Update(e, guaddr, 0)

	line := 1
	var ctr uint64
	allocs := testing.AllocsPerRun(100, func() {
		if err := tr.VerifyPath(e, guaddr, line); err != nil {
			t.Fatal(err)
		}
		res := tr.Update(e, guaddr, line)
		if res.Overflowed || !tr.UpdateRun(e, guaddr, 64, 64) {
			t.Fatal("unexpected overflow in alloc test")
		}
		ctr ^= tr.LeafCounter(line)
	})
	if allocs != 0 {
		t.Fatalf("verify/update path allocated %.1f times per access, want 0", allocs)
	}

	// The cold half of the same paths. A second engine under the same key
	// rebinds the tree (bind compares engines by identity), which settles
	// every deferred MAC and clears every verified bit; the UpdateRuns then
	// defer eight paths that share only the root — seventeen nodes — and
	// the walks check node by node: the first flushes the three stale nodes
	// it meets, flushAll computes the rest in mask batches, and a leaf whose
	// parent is verified stops there. The runs UpdateRun refuses (none, and
	// past the leaf) change nothing, and LeafCounters of nothing reads
	// nothing.
	engines := [2]*crypt.Engine{e, crypt.NewEngine(crypt.KeyFromBytes([]byte("alloc")))}
	turn := 0
	allocs = testing.AllocsPerRun(100, func() {
		turn ^= 1
		eng := engines[turn]
		for first := 0; first < 8*2048; first += 2048 { // one leaf under each of eight interior nodes
			if !tr.UpdateRun(eng, guaddr, first, 64) {
				t.Fatal("unexpected overflow in alloc test")
			}
		}
		if err := tr.VerifyPath(eng, guaddr, 0); err != nil {
			t.Fatal(err)
		}
		tr.flushAll()
		if err := tr.VerifyPath(eng, guaddr, 64); err != nil {
			t.Fatal(err)
		}
		if tr.UpdateRun(eng, guaddr, 1, 0) || tr.UpdateRun(eng, guaddr, 1, 64) || tr.LeafCounters(line, nil) != 0 {
			t.Fatal("UpdateRun accepted a run that is not one, or LeafCounters changed nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("rebind, flush and cold verify allocated %.1f times per round, want 0", allocs)
	}
	_ = ctr
}

// TestOverflowAllocs pins what the overflow procedure allocates: with
// 2-bit locals every fourth Update of a line wraps its local counter and
// every one on its path, so four Updates re-MAC the overflowed nodes'
// other children and list the leaf's other lines for re-encryption. That
// list, grown one line at a time, is the only allocation; a run UpdateRun
// refuses because a leaf local or an interior one would wrap allocates
// nothing.
func TestOverflowAllocs(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("overflow")))
	const guaddr = 0x9400
	geo := Geometry{Arities: []int{2, 4}, LocalBits: 2}
	tr, err := New(geo, e, guaddr)
	if err != nil {
		t.Fatal(err)
	}
	overflows := 0
	got := testing.AllocsPerRun(10, func() {
		for range 4 {
			if tr.Update(e, guaddr, 0).Overflowed {
				overflows++
			}
		}
	})
	if overflows != 11 {
		t.Fatalf("%d overflows in 11 rounds of four Updates, want one per round", overflows)
	}
	var list []int
	want := testing.AllocsPerRun(10, func() {
		list = nil
		for ln := range geo.Arities[1] - 1 {
			list = append(list, ln)
		}
	})
	if got != want {
		t.Fatalf("four Updates through one overflow allocate %v objects, want the %v of the re-encryption list", got, want)
	}

	for range 3 {
		tr.Update(e, guaddr, 0) // line 0's local at its maximum, its parent slot too
	}
	if a := testing.AllocsPerRun(10, func() {
		if tr.UpdateRun(e, guaddr, 0, 1) || tr.UpdateRun(e, guaddr, 1, 1) {
			t.Fatal("UpdateRun accepted a run whose counters would wrap")
		}
	}); a != 0 {
		t.Fatalf("refused UpdateRun allocated %v times, want 0", a)
	}
}

// TestIdleTreeAllocsConstant pins the flat-arena storage guarantee: a
// freshly built tree costs a constant number of heap allocations (the
// counter plane, MAC plane, dirty bitset, mask caches and index tables),
// independent of how many nodes the geometry has. The old per-node
// layout allocated one Local slice per node — 529 allocations for the
// 3-level paper tree; the arena brings that to O(1).
func TestIdleTreeAllocsConstant(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("idle")))
	const guaddr = 0x9200
	build := func(geo Geometry) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := New(geo, e, guaddr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := build(Geometry{Arities: []int{2, 3, 4}}) // 1+2+6 = 9 nodes
	big := build(ForLevels(3))                        // 1+16+512 = 529 nodes
	if small != big {
		t.Fatalf("tree allocations scale with node count: %v (9 nodes) vs %v (529 nodes)", small, big)
	}
	// The exact count is implementation detail; the bound guards against a
	// regression back to per-node heap objects.
	if big > 16 {
		t.Fatalf("idle tree costs %v allocations, want O(1) (<= 16)", big)
	}
}

// TestBatchedVerifyMatchesPerNode: VerifyPath passes a healthy tree and
// names, on a tampered one, the node a leaf-to-root walk meets first.
func TestBatchedVerifyMatchesPerNode(t *testing.T) {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("batch")))
	const guaddr = 0x9100
	tr, err := New(ForLevels(3), e, guaddr)
	if err != nil {
		t.Fatal(err)
	}
	lines := []int{0, 1, 63, 64, 2047, tr.Geometry().Lines() - 1}
	for _, ln := range lines {
		if err := tr.VerifyPath(e, guaddr, ln); err != nil {
			t.Fatalf("line %d: healthy tree failed verify: %v", ln, err)
		}
	}
	// Tamper with one interior node; every line under it must fail, and the
	// error must name that node (level 1), matching serial leaf-to-root
	// order: the leaf verifies fine, level 1 is the first mismatch.
	n := tr.Node(1, 0)
	n.SetGlobal(n.Global() + 1)
	err = tr.VerifyPath(e, guaddr, 0)
	if err == nil {
		t.Fatal("tampered tree verified")
	}
	if got, want := err.Error(), "tree: integrity check failed: node level 2 index 0"; got != want {
		// Bumping an interior global changes that node's counters, which
		// breaks the MAC keyed over the *leaf* (its parent counter changed)
		// first in leaf-to-root order.
		t.Fatalf("error %q, want %q", got, want)
	}
}
