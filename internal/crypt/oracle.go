package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// This file is the slow reference for the AES side of the engine, as
// internal/gf/oracle.go is for the field arithmetic: the two-block tweak
// PRF written out block by block with fresh arrays, and the three
// operations built on it — XORPad, LineMAC, NodeMAC. Nothing on the
// protected read/write path calls it. It defines what the scratch
// kernels in scratch.go must compute (the tests hold them equal on every
// input) and it is what the known-answer vectors pin.

// tweakBase encrypts the location half of a tweak: (address, line index,
// domain). The full tweak space (address, line, counter, lane) exceeds one
// AES block, so the pad PRF chains two AES calls, CBC-MAC style — a PRF
// for fixed two-block inputs.
func (e *Engine) tweakBase(guaddr uint64, line uint32, domain byte) [aes.BlockSize]byte {
	var in, out [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(in[0:8], guaddr)
	binary.LittleEndian.PutUint32(in[8:12], line)
	in[12] = domain
	e.block.Encrypt(out[:], in[:])
	return out
}

// prf finishes the two-block PRF: AES(base XOR (counter, lane)).
func (e *Engine) prf(base [aes.BlockSize]byte, counter uint64, lane uint32) [aes.BlockSize]byte {
	var in, out [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(in[0:8], counter)
	binary.LittleEndian.PutUint32(in[8:12], lane)
	for i := range in {
		in[i] ^= base[i]
	}
	e.block.Encrypt(out[:], in[:])
	return out
}

// macMask derives the one-time MAC mask for a tweak. domain separates data
// line MACs from tree node MACs; the lane constant separates masks from
// pad keystream blocks.
func (e *Engine) macMask(tw Tweak, domain byte) uint64 {
	out := e.prf(e.tweakBase(tw.GUAddr, tw.Line, domain), tw.Counter, 0xFFFFFFFF)
	return binary.LittleEndian.Uint64(out[:8])
}

// XORPad applies the OTP keystream for tw to the LineSize bytes of buf in
// place; XOR is symmetric, so it both encrypts and decrypts.
func (e *Engine) XORPad(tw Tweak, buf []byte) {
	if len(buf) != LineSize {
		// caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: XORPad with %d bytes, want %d", len(buf), LineSize))
	}
	base := e.tweakBase(tw.GUAddr, tw.Line, DomainPad)
	for off := 0; off < LineSize; off += aes.BlockSize {
		out := e.prf(base, tw.Counter, uint32(off/aes.BlockSize))
		for i, p := range out {
			buf[off+i] ^= p
		}
	}
}

// LineMAC authenticates one encrypted line at version tw. The MAC is the
// GF(2^64) polynomial hash of the ciphertext words evaluated at the secret
// point, masked with an AES-derived pad bound to the tweak — a classic
// Carter–Wegman construction, replay-sensitive because the counter is in
// the mask.
func (e *Engine) LineMAC(tw Tweak, ct []byte) uint64 {
	if len(ct) != LineSize {
		// caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: LineMAC with %d bytes, want %d", len(ct), LineSize))
	}
	words := make([]uint64, 0, LineSize/8+1)
	for off := 0; off+8 <= len(ct); off += 8 {
		words = append(words, binary.LittleEndian.Uint64(ct[off:]))
	}
	words = append(words, uint64(len(ct))) // length binding
	return e.mulx.Eval(words) ^ e.macMask(tw, DomainLineMAC)
}

// NodeMAC authenticates one integrity-tree node: its stored counter words
// hashed together with the parent counter that covers it (§II-A: "the
// hash value is calculated with the counter in the parent node and all
// counters in the current node").
//
// packed is the node's counter plane exactly as the tree stores it — the
// global counter word followed by the 16-bit local fields packed four per
// uint64 — so the hardware-faithful hash input is the compact on-chip
// representation, not the widened effective counters (a 64-ary leaf
// hashes 17 words, not 66). arity binds the declared slot count, which
// keeps the encoding injective: two nodes of different arity can share a
// packed image (trailing zero locals), but never an (arity, packed) pair.
func (e *Engine) NodeMAC(guaddr uint64, nodeID uint32, parentCounter, arity uint64, packed []uint64) uint64 {
	return e.NodeHash(parentCounter, arity, packed) ^
		e.macMask(Tweak{GUAddr: guaddr, Line: nodeID, Counter: parentCounter}, DomainNodeMAC)
}
