//go:build !purego

package gf

import "testing"

func TestMulxTablesMatchOracle(t *testing.T) {
	// The cached powers are built by the kernel itself; each must be the
	// oracle's x^i.
	for _, x := range []uint64{0x9E3779B97F4A7C15, 1, 2, 1 << 63, ^uint64(0)} {
		m := NewMulx(x)
		want := uint64(1)
		for i, got := range m.pow {
			if got != want {
				t.Fatalf("NewMulx(%#x).pow[%d] = %#x, want %#x", x, i, got, want)
			}
			want = mulSlow(want, x)
		}
	}
}

func TestDotReducesFullWidthProducts(t *testing.T) {
	// All-ones operands make every unreduced product 127 bits wide and the
	// sum's high word dense, so both folds of the final reduction carry.
	ones := make([]uint64, 9)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for n := 0; n <= len(ones); n++ {
		want := mulSlow(^uint64(0), 1<<63)
		for i := 0; i < n; i++ {
			want ^= mulSlow(ones[i], ones[i])
		}
		if got := dot(&ones[0], &ones[0], n, ^uint64(0), 1<<63); got != want {
			t.Fatalf("dot of %d all-ones pairs = %#x, want %#x", n, got, want)
		}
	}
}
