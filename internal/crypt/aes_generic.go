//go:build !amd64 || purego

package crypt

import "crypto/aes"

// This file is the portable AES primitive: every platform but amd64, and
// amd64 under -tags purego. aes_amd64.go is its AES-NI twin; the two
// produce the same bytes.

// padKeys is empty here: the schedule lives inside the cipher.Block.
type padKeys struct{}

func newPadKeys(Key) padKeys { return padKeys{} }

// encryptBlocks encrypts the len(src)/16 independent blocks of src under
// the pad key into dst, one cipher.Block call each. dst and src are the
// same bytes (in place) or do not overlap. Both escape through the
// interface, so callers stage in long-lived memory (planes, a Scratch).
func (e *Engine) encryptBlocks(dst, src []byte) {
	for off := 0; off+aes.BlockSize <= len(src); off += aes.BlockSize {
		e.block.Encrypt(dst[off:off+aes.BlockSize], src[off:off+aes.BlockSize])
	}
}

// xorLines XORs each of n lines of src with the keystream of its
// LineKeysSize record in keys into dst, a line at a time; dst may be src.
func xorLines(dst, src, keys []byte, n int) {
	for i := range n {
		xorLine((*[LineSize]byte)(dst[i*LineSize:]), (*[LineSize]byte)(src[i*LineSize:]), (*[LineSize]byte)(keys[i*LineKeysSize:]))
	}
}

// stageLineKeys writes the second-level PRF inputs of len(ctrs) lines
// into their records in keys, for LineKeys to encrypt in place.
func stageLineKeys(bases []byte, ctrs []uint64, keys []byte) {
	for i, ctr := range ctrs {
		b := (*[LineBasesSize]byte)(bases[i*LineBasesSize:])
		k := (*[LineKeysSize]byte)(keys[i*LineKeysSize:])
		padInput((*[LineSize]byte)(k[:]), (*block)(b[:]), ctr)
		laneInput((*block)(k[LineSize:]), (*block)(b[MaskBaseSize:]), ctr, maskLane)
	}
}
