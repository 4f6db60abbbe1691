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
	_ = ctr
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
