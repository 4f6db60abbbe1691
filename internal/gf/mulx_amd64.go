//go:build !purego

package gf

// maxPow is K, the highest cached power of the point. One kernel call
// covers a polynomial of up to K coefficients; longer ones fold chunk-wise
// (tree.Geometry puts no ceiling on arity). The default geometry's longest
// polynomial is a 64-ary leaf: 17 packed words at powers 2..18.
const maxPow = 64

// Mulx multiplies by one fixed element x of GF(2^64), and evaluates
// polynomials at it, as the dot product the paper's engine computes
// (§II-A): hash(c) = Σ c[i]·x^i against the cached powers pow[i] = x^i.
// Every product is taken as an unreduced 128-bit carry-less multiply
// (PCLMULQDQ), XOR-accumulated, and the sum reduced once — reduction
// modulo the field polynomial is GF(2)-linear, so reducing the sum equals
// summing the reductions. The Carter–Wegman MACs therefore run as
// independent multiplies, not as one serial Horner chain, and a key costs
// 520 bytes here where the byte tables of mulx_generic.go cost 16 KB.
type Mulx struct {
	pow [maxPow + 1]uint64
}

// dot returns a·b + Σ c[i]·p[i] over i < n, reduced into GF(2^64). c and
// p must each point at n readable words; n == 0 reads neither.
//
//go:noescape
func dot(c, p *uint64, n int, a, b uint64) uint64

// dotLE is dot with c read as n little-endian words — the same routine,
// amd64 being little-endian, entered through a byte-typed declaration so
// that a ciphertext line is hashed where it lies.
//
//go:noescape
func dotLE(c *byte, p *uint64, n int, a, b uint64) uint64

// evalBlocks writes to out[i], for each i < n, the polynomial whose eight
// coefficients are the little-endian words of the i-th BlockSize-byte
// block at blocks, evaluated against the powers p[0..7]: dotLE per block,
// with the powers and the reduction constant loaded once for all of them.
// n == 0 touches nothing.
//
//go:noescape
func evalBlocks(blocks *byte, n int, p, out *uint64)

// hasCLMUL reports whether the CPU implements PCLMULQDQ.
func hasCLMUL() bool

func init() {
	if !hasCLMUL() {
		//mmt:allow nopanic: no MAC can be computed on this CPU by this build; halt at start-up with the remedy
		panic("gf: this CPU has no PCLMULQDQ instruction; rebuild with -tags purego")
	}
}

// NewMulx caches the powers x^0 … x^K of x, each one kernel multiply of
// the previous.
func NewMulx(x uint64) *Mulx {
	m := &Mulx{}
	m.pow[0] = 1
	for i := 1; i <= maxPow; i++ {
		m.pow[i] = dot(&m.pow[i-1], &x, 1, 0, 0)
	}
	return m
}

// Mul returns a * x in GF(2^64).
func (m *Mulx) Mul(a uint64) uint64 { return dot(&a, &m.pow[1], 1, 0, 0) }

// Eval evaluates the polynomial with coefficients coeffs (constant term
// first) at the fixed point. Equivalent to gf.Eval(coeffs, x) for the x
// the Mulx was built with. Up to K coefficients are one kernel call; a
// longer polynomial is Horner's rule over K-word chunks, top chunk first,
// the running value re-entering each call as the x^K term.
func (m *Mulx) Eval(coeffs []uint64) uint64 {
	var acc uint64
	for n := len(coeffs); n > 0; {
		lo := (n - 1) / maxPow * maxPow
		acc = dot(&coeffs[lo], &m.pow[0], n-lo, acc, m.pow[maxPow])
		n = lo
	}
	return acc
}

// EvalBlock evaluates the polynomial whose eight coefficients are the
// little-endian words of b, constant term first.
func (m *Mulx) EvalBlock(b *[BlockSize]byte) uint64 {
	return dotLE(&b[0], &m.pow[0], BlockSize/8, 0, 0)
}

// EvalBlocks is EvalBlock for the len(blocks)/BlockSize consecutive blocks
// of blocks, block i's value written to out[i]: one kernel entry for a
// whole run of cache lines, whose dot products are independent and overlap
// in the multiplier. len(out) must be at least the block count.
func (m *Mulx) EvalBlocks(blocks []byte, out []uint64) {
	if n := len(blocks) / BlockSize; n > 0 {
		evalBlocks(&blocks[0], n, &m.pow[0], &out[:n][0])
	}
}

// EvalPrefixed evaluates the polynomial (h0, h1, coeffs...) — two header
// coefficients ahead of a slice used in place — at the fixed point:
// h0 + h1·x + x²·Eval(coeffs), one kernel call at power offset 2 when the
// powers reach.
func (m *Mulx) EvalPrefixed(h0, h1 uint64, coeffs []uint64) uint64 {
	if n := len(coeffs); n > 0 && n < maxPow {
		return h0 ^ dot(&coeffs[0], &m.pow[2], n, h1, m.pow[1])
	}
	e := m.Eval(coeffs)
	return h0 ^ dot(&e, &m.pow[2], 1, h1, m.pow[1])
}

// EvalBatch evaluates several polynomials at the fixed point, writing
// polynomial j's hash to out[j] == Eval(polys[j]). The kernel already
// runs each polynomial's multiplies independently, so there is nothing
// left to interleave across polynomials.
//
// len(out) must be >= len(polys); out[len(polys):] is untouched.
func (m *Mulx) EvalBatch(polys [][]uint64, out []uint64) {
	for j, p := range polys {
		out[j] = m.Eval(p)
	}
}
