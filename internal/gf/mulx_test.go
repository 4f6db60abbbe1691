package gf

import (
	"encoding/binary"
	"testing"
)

// kernelSpan mirrors the amd64 kernel's K (maxPow): the lengths worth
// testing sit around it whichever Mulx this build compiles.
const kernelSpan = 64

// edgeLengths are the polynomial lengths at which the dot-product kernel
// changes shape: empty, the single-word tail, odd and even pair counts,
// and both sides of each chunk boundary.
var edgeLengths = []int{0, 1, 2, 3, 8, 9, 17,
	kernelSpan - 2, kernelSpan - 1, kernelSpan, kernelSpan + 1,
	2*kernelSpan - 1, 2 * kernelSpan, 2*kernelSpan + 1, 2*kernelSpan + 3}

// checkAgainstOracle holds every way of evaluating coeffs at x to the
// bit-loop oracle's answer.
func checkAgainstOracle(t *testing.T, x, h0, h1 uint64, coeffs []uint64) {
	t.Helper()
	m := NewMulx(x)
	want := evalSlow(coeffs, x)
	if got := m.Eval(coeffs); got != want {
		t.Errorf("len %d: Mulx.Eval = %#x, oracle %#x", len(coeffs), got, want)
	}
	if got := Eval(coeffs, x); got != want {
		t.Errorf("len %d: gf.Eval = %#x, oracle %#x", len(coeffs), got, want)
	}
	// The polynomial in the middle of a batch, between two others.
	out := []uint64{0, 0, 0, 0xDEAD}
	m.EvalBatch([][]uint64{{h0, h1}, coeffs, nil}, out)
	if out[0] != evalSlow([]uint64{h0, h1}, x) || out[1] != want || out[2] != 0 || out[3] != 0xDEAD {
		t.Errorf("len %d: EvalBatch = %#x, oracle %#x", len(coeffs), out, want)
	}
	wantPre := evalSlow(append([]uint64{h0, h1}, coeffs...), x)
	if got := m.EvalPrefixed(h0, h1, coeffs); got != wantPre {
		t.Errorf("len %d: EvalPrefixed = %#x, oracle %#x", len(coeffs), got, wantPre)
	}
	// One block: the header words and the first six coefficients, laid
	// out as bytes.
	var block [BlockSize]byte
	words := append([]uint64{h0, h1}, make([]uint64, 6)...)
	copy(words[2:], coeffs)
	for i, w := range words {
		binary.LittleEndian.PutUint64(block[8*i:], w)
	}
	if got, want := m.EvalBlock(&block), evalSlow(words, x); got != want {
		t.Errorf("EvalBlock = %#x, oracle %#x", got, want)
	}
	if got := m.Mul(h0); got != mulSlow(h0, x) {
		t.Errorf("Mulx.Mul(%#x) = %#x, oracle %#x", h0, got, mulSlow(h0, x))
	}
}

func TestEvaluatorsAgreeAtKernelEdges(t *testing.T) {
	seed := uint64(0x5DEECE66D)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	for _, n := range edgeLengths {
		coeffs := make([]uint64, n)
		for i := range coeffs {
			coeffs[i] = next()
		}
		checkAgainstOracle(t, next(), next(), next(), coeffs)
	}
}

// FuzzDotVsOracle drives the fixed-point evaluators with an arbitrary
// point, header words and coefficients (the little-endian words of data,
// up to 2K+3 of them) against the bit-loop oracle. The committed corpus
// holds one input per edge length plus dense and top-bit operands.
func FuzzDotVsOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, h0, h1 uint64, data []byte) {
		coeffs := make([]uint64, min(len(data)/8, 2*kernelSpan+3))
		for i := range coeffs {
			coeffs[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkAgainstOracle(t, x, h0, h1, coeffs)
	})
}
