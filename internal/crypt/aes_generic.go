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
