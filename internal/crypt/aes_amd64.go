//go:build !purego

package crypt

import "crypto/aes"

// padKeys is the pad key's AES-128 key schedule: eleven round keys, made
// by the module's own AESKEYGENASSIST expansion because the standard
// library exposes neither its round keys nor a multi-block ECB.
type padKeys [11 * aes.BlockSize]byte

//go:noescape
func expandKey(rk *padKeys, key *Key)

// aesniBlocks encrypts the n independent 16-byte blocks at src into dst.
// With wide it runs eight blocks per VAESENC round in four ymm registers
// while eight are left, then the xmm loop: four in flight per AESENC
// round, then one at a time. dst == src is in place; n == 0 touches
// neither.
//
//go:noescape
func aesniBlocks(rk *padKeys, dst, src *byte, n int, wide bool)

// xorLinesSSE2 writes dst line i = src line i ⊕ the first LineSize bytes
// of keys record i (a LineKeysSize stride) for n lines, four PXORs a line.
// Each line is loaded before it is stored, so dst == src is in place.
//
//go:noescape
func xorLinesSSE2(dst, src, keys *byte, n int)

// stageLineKeysSSE2 writes, for each of n lines, the five second-level
// PRF inputs of its LineKeysSize record in keys: its pad base (bases
// record i, first block) ⊕ (ctrs[i] ‖ lane) for lanes 0…3, then its
// line-MAC base (second block) ⊕ (ctrs[i] ‖ maskLane), each built in a
// register and stored whole.
//
//go:noescape
func stageLineKeysSSE2(bases *byte, ctrs *uint64, keys *byte, n int)

// cpuid executes CPUID for leaf and sub-leaf and returns EAX and ECX.
func cpuid(leaf, sub uint32) (eax, ecx uint32)

// xcr0 returns the low word of XCR0: the register state the OS saves.
func xcr0() uint32

// useVAES selects aesniBlocks' VAES loop. init sets it from CPUID; the
// tests clear it to run the xmm loop on a CPU that has both.
var useVAES bool

func init() {
	if _, ecx := cpuid(1, 0); ecx&(1<<25) == 0 {
		// no pad or mask can be computed on this CPU by this build; halt at start-up with the remedy
		panic("crypt: this CPU has no AES-NI instructions; rebuild with -tags purego")
	}
	useVAES = hasVAES()
}

// hasVAES reports whether VAESENC runs on ymm registers here: the CPU has
// VAES (leaf 7, ECX bit 9) and AVX, and the OS has enabled XGETBV
// (OSXSAVE) and saves both xmm and ymm state (XCR0 bits 1 and 2).
func hasVAES() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _ := cpuid(0, 0)
	if _, ecx := cpuid(1, 0); maxLeaf < 7 || ecx&(osxsave|avx) != osxsave|avx || xcr0()&6 != 6 {
		return false
	}
	_, ecx := cpuid(7, 0)
	return ecx&(1<<9) != 0
}

func newPadKeys(key Key) (rk padKeys) {
	expandKey(&rk, &key)
	return rk
}

// encryptBlocks encrypts the len(src)/16 independent blocks of src under
// the pad key into dst — the one AES primitive every pad, mask and tweak
// base goes through. dst and src are the same bytes (in place) or do not
// overlap. Neither escapes, so callers may stage on the stack.
func (e *Engine) encryptBlocks(dst, src []byte) {
	if n := len(src) / aes.BlockSize; n > 0 {
		aesniBlocks(&e.rk, &dst[:n*aes.BlockSize][0], &src[0], n, useVAES)
	}
}

// xorLines XORs each of n lines of src with the keystream of its
// LineKeysSize record in keys into dst, one kernel call for the run; dst
// may be src.
func xorLines(dst, src, keys []byte, n int) {
	if n > 0 {
		xorLinesSSE2(&dst[:n*LineSize][0], &src[:n*LineSize][0], &keys[:n*LineKeysSize][0], n)
	}
}

// stageLineKeys writes the second-level PRF inputs of len(ctrs) lines
// into their records in keys, for LineKeys to encrypt in place.
func stageLineKeys(bases []byte, ctrs []uint64, keys []byte) {
	if n := len(ctrs); n > 0 {
		stageLineKeysSSE2(&bases[:n*LineBasesSize][0], &ctrs[0], &keys[:n*LineKeysSize][0], n)
	}
}
