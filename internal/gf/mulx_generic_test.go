//go:build !amd64 || purego

package gf

import "testing"

func TestMulxTablesMatchOracle(t *testing.T) {
	for o := uint64(0); o < 256; o++ {
		if want := mulSlow(o<<32, 1<<32); red8[o] != want {
			t.Fatalf("red8[%d] = %#x, want %#x", o, red8[o], want)
		}
	}
	// The doubling-chain construction must reproduce the naive per-entry
	// definition tbl[i][b] = (b << 8i) · x for a couple of points.
	for _, x := range []uint64{0x9E3779B97F4A7C15, 1, ^uint64(0)} {
		m := NewMulx(x)
		for i := 0; i < 8; i++ {
			for b := 0; b < 256; b++ {
				want := mulSlow(uint64(b)<<(8*i), x)
				if m.tbl[i][b] != want {
					t.Fatalf("NewMulx(%#x).tbl[%d][%d] = %#x, want %#x", x, i, b, m.tbl[i][b], want)
				}
			}
		}
	}
}
