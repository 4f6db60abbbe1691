//go:build !purego

package crypt

import (
	"bytes"
	"testing"
)

// TestExpandKeyFIPS197: the Appendix A.1 key schedule — the first round
// key is the cipher key and the last is w[40..43].
func TestExpandKeyFIPS197(t *testing.T) {
	key := unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	rk := newPadKeys(Key(key))
	if !bytes.Equal(rk[:16], key) {
		t.Fatalf("round key 0 = %x, want the cipher key", rk[:16])
	}
	if want := unhex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6"); !bytes.Equal(rk[160:], want) {
		t.Fatalf("round key 10 = %x, want %x", rk[160:], want)
	}
}

// eachAESLoop runs f once through each encryptBlocks loop this CPU has —
// the VAES loop when CPUID reports it, then the xmm loop — and restores
// the choice init made. On a CPU without VAES it logs that half as
// skipped.
func eachAESLoop(t testing.TB, f func(loop string)) {
	t.Helper()
	defer func(init bool) { useVAES = init }(useVAES)
	if hasVAES() {
		useVAES = true
		f("vaes")
	} else {
		t.Log("no VAES on this CPU: the eight-wide loop is skipped")
	}
	useVAES = false
	f("xmm")
}
