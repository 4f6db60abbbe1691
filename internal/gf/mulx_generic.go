//go:build !amd64 || purego

package gf

import "encoding/binary"

// This file is the portable Mulx: every platform but amd64, and amd64
// under -tags purego. mulx_amd64.go is its carry-less-multiply twin; the
// two export the same methods and produce the same values.

// red8 is red4's byte-wide sibling: red8[o] is the reduction of o·x^64
// for the 8-bit overflow of a multiply-by-x^8 step, derived from the
// bit-loop oracle like red4.
var red8 [256]uint64

func init() {
	for o := range red8 {
		red8[o] = reduceSlow(uint64(o), 0)
	}
}

// mulx8 returns v * x^8 in GF(2^64): shift by a byte, folding the eight
// overflow bits through red8.
func mulx8(v uint64) uint64 { return v<<8 ^ red8[v>>56] }

// Mulx multiplies by one fixed element of GF(2^64) using byte-indexed
// precomputed tables, the classic GHASH acceleration. The Carter–Wegman
// MACs evaluate polynomials at a single secret point via Horner's rule, so
// every multiplication in the hot path is by that fixed point; one Mulx
// per key turns each from a 64-iteration carry-less loop into 8 table
// lookups.
type Mulx struct {
	tbl [8][256]uint64
}

// NewMulx precomputes the tables for multiplication by x.
//
// Construction avoids all 2040 generic multiplications the naive build
// needed: row 0 is filled by the doubling chain tbl[0][2k] = x·tbl[0][k],
// tbl[0][2k+1] = tbl[0][2k] ^ x (tbl[0][b] = b·x), and each higher row is
// the previous one advanced one byte position through the shared red8
// fold table: tbl[i][b] = (b<<8i)·x = x^8 · tbl[i-1][b]. Install (which
// builds a fresh engine per migrated region) went from ~160µs of bit
// loops per key to a few µs of shifts and xors.
func NewMulx(x uint64) *Mulx {
	m := &Mulx{}
	m.tbl[0][1] = x
	for b := 2; b < 256; b += 2 {
		v := m.tbl[0][b>>1]
		m.tbl[0][b] = v<<1 ^ red4[v>>63] // x * tbl[0][b/2]; v>>63 is 0 or 1
		m.tbl[0][b+1] = m.tbl[0][b] ^ x
	}
	for i := 1; i < 8; i++ {
		for b := 1; b < 256; b++ {
			m.tbl[i][b] = mulx8(m.tbl[i-1][b])
		}
	}
	return m
}

// Mul returns a * x in GF(2^64).
func (m *Mulx) Mul(a uint64) uint64 {
	return m.tbl[0][byte(a)] ^
		m.tbl[1][byte(a>>8)] ^
		m.tbl[2][byte(a>>16)] ^
		m.tbl[3][byte(a>>24)] ^
		m.tbl[4][byte(a>>32)] ^
		m.tbl[5][byte(a>>40)] ^
		m.tbl[6][byte(a>>48)] ^
		m.tbl[7][byte(a>>56)]
}

// Eval evaluates the polynomial with coefficients coeffs (constant term
// first) at the fixed point, via Horner's rule. Equivalent to
// gf.Eval(coeffs, x) for the x the Mulx was built with.
func (m *Mulx) Eval(coeffs []uint64) uint64 {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = m.Mul(acc) ^ coeffs[i]
	}
	return acc
}

// EvalBlock evaluates the polynomial whose eight coefficients are the
// little-endian words of b, constant term first.
func (m *Mulx) EvalBlock(b *[BlockSize]byte) uint64 {
	var acc uint64
	for off := BlockSize - 8; off >= 0; off -= 8 {
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(b[off:])
	}
	return acc
}

// EvalBlocks is EvalBlock for the len(blocks)/BlockSize consecutive blocks
// of blocks, block i's value written to out[i]. len(out) must be at least
// the block count.
func (m *Mulx) EvalBlocks(blocks []byte, out []uint64) {
	for i := range out[:len(blocks)/BlockSize] {
		out[i] = m.EvalBlock((*[BlockSize]byte)(blocks[i*BlockSize:]))
	}
}

// EvalPrefixed evaluates the polynomial (h0, h1, coeffs...) — two header
// coefficients ahead of a slice used in place — at the fixed point:
// h0 + h1·x + x²·Eval(coeffs).
func (m *Mulx) EvalPrefixed(h0, h1 uint64, coeffs []uint64) uint64 {
	return m.Mul(m.Mul(m.Eval(coeffs))^h1) ^ h0
}

// EvalBatch evaluates several polynomials at the fixed point at once,
// writing polynomial j's hash to out[j]. Semantically out[j] ==
// Eval(polys[j]); the win is instruction-level parallelism: a single
// Horner chain is one long serial dependency (each Mul waits on the
// previous accumulator), while the lock-step loop here interleaves the
// independent accumulators of the batch, so the table lookups of
// different polynomials overlap.
//
// len(out) must be >= len(polys); out[len(polys):] is untouched.
func (m *Mulx) EvalBatch(polys [][]uint64, out []uint64) {
	for j := range polys {
		out[j] = 0
	}
	maxLen := 0
	for _, p := range polys {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	// Lock-step Horner: at step i, every polynomial long enough folds its
	// coefficient i. An accumulator stays zero until its own highest
	// coefficient (Mul(0) == 0), so shorter polynomials join late with no
	// effect on their value.
	for i := maxLen - 1; i >= 0; i-- {
		for j, p := range polys {
			if i < len(p) {
				out[j] = m.Mul(out[j]) ^ p[i]
			}
		}
	}
}
