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
	// The run kernel over every whole block of the coefficients' bytes,
	// each block to the oracle, and nothing written past the last one.
	n := len(coeffs) / (BlockSize / 8)
	blocks := make([]byte, 8*len(coeffs))
	for i, c := range coeffs {
		binary.LittleEndian.PutUint64(blocks[8*i:], c)
	}
	sums := make([]uint64, n+1)
	sums[n] = 0xDEAD
	m.EvalBlocks(blocks, sums)
	for i := range n {
		if want := evalSlow(coeffs[i*BlockSize/8:(i+1)*BlockSize/8], x); sums[i] != want {
			t.Errorf("len %d: EvalBlocks[%d] = %#x, oracle %#x", len(coeffs), i, sums[i], want)
		}
	}
	if sums[n] != 0xDEAD {
		t.Errorf("len %d: EvalBlocks wrote past block %d", len(coeffs), n)
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
// holds one input per edge length plus dense and top-bit operands; the
// seeds below add runs of 1 to 9 whole blocks for EvalBlocks.
func FuzzDotVsOracle(f *testing.F) {
	for n := 1; n <= 9; n++ {
		data := make([]byte, n*BlockSize)
		for i := range data {
			data[i] = byte(i*131 + n)
		}
		f.Add(uint64(0x9E3779B97F4A7C15)*uint64(n), uint64(n), ^uint64(n), data)
	}
	f.Fuzz(func(t *testing.T, x, h0, h1 uint64, data []byte) {
		coeffs := make([]uint64, min(len(data)/8, 2*kernelSpan+3))
		for i := range coeffs {
			coeffs[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkAgainstOracle(t, x, h0, h1, coeffs)
	})
}

// TestEvalBlocksMatchesEvalBlock holds the run kernel to EvalBlock block by
// block: no block, one, a pair, and both sides of a 64-block run, with the
// blocks starting at an aligned and at an odd byte offset and the output
// at an even and an odd word — the kernel's loads and stores assume no
// alignment. Words of out past the block count stay as they were.
func TestEvalBlocksMatchesEvalBlock(t *testing.T) {
	seed := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	m := NewMulx(next())
	for _, n := range []int{0, 1, 2, 63, 64, 65} {
		for _, off := range []int{0, 1, 7} {
			buf := make([]byte, off+n*BlockSize+5) // a ragged tail is not a block
			for i := range buf {
				buf[i] = byte(next() >> 56)
			}
			out := make([]uint64, off+n+1)
			out[off+n] = 0xDEAD
			m.EvalBlocks(buf[off:], out[off:])
			for i := range n {
				if want := m.EvalBlock((*[BlockSize]byte)(buf[off+i*BlockSize:])); out[off+i] != want {
					t.Fatalf("n %d, offset %d: EvalBlocks[%d] = %#x, EvalBlock %#x", n, off, i, out[off+i], want)
				}
			}
			if out[off+n] != 0xDEAD {
				t.Fatalf("n %d, offset %d: EvalBlocks wrote past the last block", n, off)
			}
		}
	}
}

func BenchmarkEvalBlocks(b *testing.B) {
	m := NewMulx(0x9E3779B97F4A7C15)
	blocks := make([]byte, 64*BlockSize)
	for i := range blocks {
		blocks[i] = byte(i * 7)
	}
	out := make([]uint64, 64)
	b.Run("EvalBlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out[i&63] = m.EvalBlock((*[BlockSize]byte)(blocks[(i&63)*BlockSize:]))
		}
	})
	b.Run("EvalBlocks64", func(b *testing.B) {
		for i := 0; i < b.N; i += 64 {
			m.EvalBlocks(blocks, out)
		}
	})
}

// TestKernelsAllocFree: every evaluator, the two-operand forms and those of
// a built Mulx, allocates nothing — short and multi-chunk polynomials,
// both EvalPrefixed shapes, a batch and a run of blocks.
func TestKernelsAllocFree(t *testing.T) {
	m := NewMulx(0x1B2C3D4E5F607182)
	long := make([]uint64, 2*kernelSpan+3)
	for i := range long {
		long[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	short := long[:3]
	blocks := make([]byte, 2*BlockSize)
	out := make([]uint64, 2)
	var acc uint64
	if a := testing.AllocsPerRun(100, func() {
		acc ^= Mul(acc|1, long[0]) ^ Dot(long, short) ^ Eval(long, acc)
		acc ^= m.Mul(acc) ^ m.Eval(long) ^ m.EvalBlock((*[BlockSize]byte)(blocks))
		acc ^= m.EvalPrefixed(1, 2, short) ^ m.EvalPrefixed(1, 2, long)
		m.EvalBlocks(blocks, out)
		m.EvalBatch([][]uint64{short, long}, out)
		acc ^= out[0] ^ out[1]
	}); a != 0 {
		t.Fatalf("the GF kernels allocate %v objects per round, want 0", a)
	}
}
