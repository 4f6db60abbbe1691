// Package gf implements arithmetic in the finite field GF(2^64), used by
// the MMT controller's Carter–Wegman MACs. The paper's integrity-tree hash
// "xors the OTP and a Galois Field (GF) dot product result" (§II-A); this
// package provides that dot product.
//
// Elements are uint64 values interpreted as polynomials over GF(2); the
// reduction polynomial is x^64 + x^4 + x^3 + x + 1 (the lexicographically
// smallest irreducible degree-64 pentanomial, the same one used by
// reference GHASH-style constructions over 64-bit words).
//
// Three multipliers share one definition. The bit loop in oracle.go
// defines the field and is what every test compares against. Mul and
// Eval, for two free operands, walk a 4-bit window of one operand built
// per call, folding overflow through the small shared red4 table. Mulx,
// the fixed-point multiplier every Carter–Wegman MAC goes through, is
// per platform: a carry-less-multiply dot product over cached powers of
// the point on amd64 (mulx_amd64.go), byte tables and Horner's rule
// elsewhere and under -tags purego (mulx_generic.go). All are pinned by
// the same known-answer vectors (testdata/gf_kat.json).
package gf

// reduction holds the low coefficients of the irreducible polynomial
// x^64 + x^4 + x^3 + x + 1: bits for x^4, x^3, x^1, x^0.
const reduction uint64 = 0x1B

// BlockSize is the byte size of the block Mulx.EvalBlock hashes in place:
// eight coefficient words, the engine's 64 B cache line.
const BlockSize = 64

// red4 is the shared (key-independent) reduction table: red4[o] is the
// reduction of o·x^64 for the 4-bit overflow o shifted out by a
// multiply-by-x^4 step. It is derived from the bit-loop oracle at init,
// so the fast path is definitionally anchored to it.
var red4 [16]uint64

func init() {
	for o := range red4 {
		red4[o] = reduceSlow(uint64(o), 0)
	}
}

// Add returns a + b in GF(2^64) (carry-less addition, i.e. XOR).
func Add(a, b uint64) uint64 { return a ^ b }

// mulx4 returns v * x^4 in GF(2^64): shift by a nibble, folding the four
// overflow bits through the shared red4 table.
func mulx4(v uint64) uint64 { return v<<4 ^ red4[v>>60] }

// window16 builds the reduced 4-bit window of a into w: w[k] = a*k for
// every 4-bit polynomial k. Entries are filled by the doubling chain
// w[2k] = x*w[k], w[2k+1] = w[2k] + a, so construction costs ~14 shifts
// and xors rather than 15 multiplications.
func window16(a uint64, w *[16]uint64) {
	w[0] = 0
	w[1] = a
	for k := 2; k < 16; k += 2 {
		v := w[k>>1]
		w[k] = v<<1 ^ red4[v>>63] // x * w[k/2]; v>>63 is 0 or 1
		w[k+1] = w[k] ^ a
	}
}

// Mul returns a * b in GF(2^64).
//
// Table-driven: a 16-entry window of a (built per call by doubling) is
// combined over the 16 nibbles of b, high to low, with each step's
// 4-bit overflow folded immediately through red4 — no 128-bit
// intermediate, no bit loop. Agrees with the retained oracle mulSlow on
// every input (TestMulMatchesOracle, gf_kat.json).
func Mul(a, b uint64) uint64 {
	var w [16]uint64
	window16(a, &w)
	var acc uint64
	for s := 60; s >= 0; s -= 4 {
		acc = mulx4(acc) ^ w[(b>>uint(s))&0xF]
	}
	return acc
}

// Dot returns the dot product sum_i a[i]*b[i] in GF(2^64). Mismatched
// lengths use the shorter slice, mirroring a hardware engine that pads
// missing lanes with zero.
func Dot(a, b []uint64) uint64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var acc uint64
	for i := 0; i < n; i++ {
		acc ^= Mul(a[i], b[i])
	}
	return acc
}

// Pow returns a^n in GF(2^64) by square-and-multiply. Pow(a, 0) is 1.
func Pow(a uint64, n uint) uint64 {
	result := uint64(1)
	for n > 0 {
		if n&1 != 0 {
			result = Mul(result, a)
		}
		a = Mul(a, a)
		n >>= 1
	}
	return result
}

// Eval evaluates the polynomial with coefficients coeffs (constant term
// first) at point x, via Horner's rule. This is the universal-hash core:
// for a fixed secret x, Eval is an almost-universal family over messages.
//
// It is the two-operand form for a point nobody keeps a Mulx for: one
// window of x built per call, then a window walk over the accumulator's
// nibbles per Horner step. Agrees exactly with the oracle evalSlow
// (TestEvalMatchesOracle).
func Eval(coeffs []uint64, x uint64) uint64 {
	var w [16]uint64
	window16(x, &w)
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		// acc*x via the window over acc's nibbles, high to low.
		var m uint64
		for s := 60; s >= 0; s -= 4 {
			m = mulx4(m) ^ w[(acc>>uint(s))&0xF]
		}
		acc = m ^ coeffs[i]
	}
	return acc
}
