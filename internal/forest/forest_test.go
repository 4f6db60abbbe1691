package forest

import (
	"sync"
	"testing"
	"testing/quick"
)

// TestComposeSplitRoundTrip: both fields of a composed address can be
// read back, so neither overlaps the other.
func TestComposeSplitRoundTrip(t *testing.T) {
	f := func(node uint16, mono uint32) bool {
		g := Compose(NodeID(node), uint64(mono))
		return NodeID(g>>monotonicBits) == NodeID(node) && g&(1<<monotonicBits-1) == uint64(mono)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComposeFitsGUAddrBits(t *testing.T) {
	g := Compose(NodeID(0xFFFF), 1<<42-1)
	if g >= 1<<GUAddrBits {
		t.Fatalf("address %#x exceeds %d bits", g, GUAddrBits)
	}
}

func TestComposePanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compose(1, 1<<42)
}

func TestAllocatorStrictlyIncreasing(t *testing.T) {
	a := NewAllocator(7)
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		g := a.Next()
		if g <= prev {
			t.Fatalf("address %#x not greater than previous %#x", g, prev)
		}
		prev = g
	}
}

func TestAllocatorsOnDifferentNodesDisjoint(t *testing.T) {
	a := NewAllocator(1)
	b := NewAllocator(2)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		for _, g := range []uint64{a.Next(), b.Next()} {
			if seen[g] {
				t.Fatalf("address %#x issued twice across nodes", g)
			}
			seen[g] = true
		}
	}
}

func TestAllocatorConcurrentUnique(t *testing.T) {
	a := NewAllocator(3)
	const workers, per = 8, 200
	out := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out <- a.Next()
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := map[uint64]bool{}
	for g := range out {
		if seen[g] {
			t.Fatalf("duplicate address %#x under concurrency", g)
		}
		seen[g] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d unique addresses, want %d", len(seen), workers*per)
	}
}
