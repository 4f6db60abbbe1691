//go:build !purego

package crypt

import "crypto/aes"

// padKeys is the pad key's AES-128 key schedule: eleven round keys, made
// by the module's own AESKEYGENASSIST expansion because the standard
// library exposes neither its round keys nor a multi-block ECB.
type padKeys [11 * aes.BlockSize]byte

//go:noescape
func expandKey(rk *padKeys, key *Key)

// aesniBlocks encrypts the n independent 16-byte blocks at src into dst,
// four in flight per AESENC round. dst == src is in place; n == 0 touches
// neither.
//
//go:noescape
func aesniBlocks(rk *padKeys, dst, src *byte, n int)

// hasAESNI reports whether the CPU implements the AES instructions.
func hasAESNI() bool

func init() {
	if !hasAESNI() {
		//mmt:allow nopanic: no pad or mask can be computed on this CPU by this build; halt at start-up with the remedy
		panic("crypt: this CPU has no AES-NI instructions; rebuild with -tags purego")
	}
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
		aesniBlocks(&e.rk, &dst[:n*aes.BlockSize][0], &src[0], n)
	}
}
