// Package crypt implements the cryptographic machinery of the MMT memory
// protection engine in software: counter-mode line encryption with one-time
// pads, Carter–Wegman MACs for data lines and integrity-tree nodes, and
// AES-GCM sealing for MMT roots in flight.
//
// The hardware engine of the paper (§II-A) derives a one-time pad from
// (address, counter) with an on-chip AES unit, XORs it with the cache line,
// and authenticates tree nodes with "the OTP and a Galois Field dot product
// result". This package is a faithful software rendition: the OTP is
// AES-128 of a tweak built from the global-unique address, line index and
// counter; MACs are GF(2^64) polynomial hashes masked by an AES-derived
// pad so that every (address, counter) pair gets an independent MAC mask.
//
// Unlike the hardware, whose key lives in efuses, the MMT key is
// user-supplied (§IV-B1): two enclaves that agree on a key can both decrypt
// and authenticate the same secure memory. Key is therefore a plain value
// type here.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"mmt/internal/gf"
)

// KeySize is the MMT key size in bytes (§V-A2: 128-bit key in the root).
const KeySize = 16

// LineSize is the protected cache-line granularity in bytes (Table II:
// 64 B lines).
const LineSize = 64

// Domain separation bytes for the two-block tweak PRF. Every derived
// value is bound to one domain so pad keystream, line-MAC masks and
// node-MAC masks can never collide even at equal (address, id, counter).
// Exported so the engine and tree layers can precompute per-object mask
// bases (MaskBaseInto) for the domains they cache.
const (
	DomainPad     byte = 0x01 // OTP keystream blocks
	DomainLineMAC byte = 0xA5 // data-line MAC masks
	DomainNodeMAC byte = 0x5A // tree-node MAC masks
)

// Key is a 128-bit MMT key. The zero Key is valid input everywhere but
// offers no secrecy; callers derive (KeyFromBytes) or negotiate a key.
type Key [KeySize]byte

// KeyFromBytes builds a key from arbitrary bytes by hashing, so tests and
// examples can use readable seeds.
func KeyFromBytes(seed []byte) Key {
	sum := sha256.Sum256(seed)
	var k Key
	copy(k[:], sum[:KeySize])
	return k
}

func (k Key) String() string { return fmt.Sprintf("mmtkey:%x…", k[:4]) }

// Engine holds the per-key derived state of the protection engine: the AES
// pad cipher, the secret GF evaluation point and the sealing AEAD. Engines
// are cheap to construct and safe for concurrent use.
type Engine struct {
	block cipher.Block // AES-128 under the pad key: oracle.go and the portable encryptBlocks
	rk    padKeys      // the same key's round keys, for the AES-NI encryptBlocks
	seal  cipher.AEAD  // AES-GCM for root sealing
	point uint64       // secret GF(2^64) evaluation point for CW MACs
	mulx  *gf.Mulx     // fixed-point multiplier for point
	// lineLen is LineHash's length-binding term, LineSize·point^8: every
	// hashed line is LineSize bytes, so the top coefficient of its
	// polynomial is a per-key constant.
	lineLen uint64
}

// NewEngine derives an engine from an MMT key.
func NewEngine(key Key) *Engine {
	padKey := deriveKey(key, "mmt/otp")
	sealKey := deriveKey(key, "mmt/seal")
	block, err := aes.NewCipher(padKey[:])
	if err != nil {
		//mmt:allow nopanic: 16-byte key size is fixed; NewCipher cannot fail
		panic("crypt: aes.NewCipher: " + err.Error())
	}
	sblock, err := aes.NewCipher(sealKey[:])
	if err != nil {
		//mmt:allow nopanic: 16-byte key size is fixed; NewCipher cannot fail
		panic("crypt: aes.NewCipher(seal): " + err.Error())
	}
	aead, err := cipher.NewGCM(sblock)
	if err != nil {
		//mmt:allow nopanic: AES-128 block size always satisfies GCM
		panic("crypt: cipher.NewGCM: " + err.Error())
	}
	pt := deriveKey(key, "mmt/point")
	point := binary.LittleEndian.Uint64(pt[:8])
	if point == 0 {
		point = 1 // the zero point would collapse the polynomial hash
	}
	mulx := gf.NewMulx(point)
	lenPoly := [LineSize/8 + 1]uint64{LineSize / 8: LineSize}
	return &Engine{block: block, rk: newPadKeys(padKey), seal: aead, point: point, mulx: mulx, lineLen: mulx.Eval(lenPoly[:])}
}

func deriveKey(key Key, label string) Key {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(label))
	var out Key
	copy(out[:], mac.Sum(nil)[:KeySize])
	return out
}

// Tweak identifies one protected cache line at one logical version. Every
// distinct (GUAddr, Line, Counter) triple yields an independent pad, which
// is exactly the uniqueness invariant the integrity forest maintains
// across nodes (§IV-A2).
type Tweak struct {
	GUAddr  uint64 // global-unique address of the MMT region
	Line    uint32 // line index within the region
	Counter uint64 // per-line counter from the integrity tree
}

// NodeHash is the GF(2^64) half of NodeMAC: the polynomial with
// coefficients (parentCounter, arity, packed...) — constant term first —
// evaluated at the secret point, the packed slice used in place. Callers
// that cache per-node masks (the tree's mask planes) compose the MAC
// themselves: NodeMAC == NodeHash ^ mask(guaddr, nodeID, parentCounter).
func (e *Engine) NodeHash(parentCounter, arity uint64, packed []uint64) uint64 {
	return e.mulx.EvalPrefixed(parentCounter, arity, packed)
}

// TagEqual compares two 64-bit authentication tags in constant time.
//
// A plain == short-circuits at the first differing machine word and, on
// smaller comparisons, the first differing byte the compiler materializes;
// an attacker who can submit guesses and time the verifier learns how
// much of a forged tag is correct and recovers it incrementally. All
// LineMAC/NodeMAC verification paths must compare through this function
// (enforced by the cryptocompare analyzer in mmt-vet).
// The branchless form: for x = a^b, (x | -x) has its top bit set iff
// x != 0 (for nonzero x <= 2^63, -x carries the top bit; above that, x
// itself does). One XOR, one negate, one OR, one shift — no data-
// dependent branches, no byte staging, and ~5x cheaper than routing two
// uint64s through subtle.ConstantTimeCompare on the hot read path.
func TagEqual(a, b uint64) bool {
	x := a ^ b
	return (x|-x)>>63 == 0
}

// Seal encrypts-and-authenticates plaintext with additional data aad,
// deriving the GCM nonce from the caller-supplied unique value. The MMT
// delegation protocol uses the root counter as the unique value; the
// protocol guarantees it increases on every delegation, so nonces never
// repeat under one key.
func (e *Engine) Seal(unique uint64, aad, plaintext []byte) []byte {
	nonce := make([]byte, e.seal.NonceSize())
	binary.LittleEndian.PutUint64(nonce, unique)
	return e.seal.Seal(nil, nonce, plaintext, aad)
}

// ErrAuth is returned when unsealing fails authentication.
var ErrAuth = errors.New("crypt: authentication failed")

// Unseal reverses Seal; it returns ErrAuth if the ciphertext or aad was
// tampered with or the wrong key/unique value is used.
func (e *Engine) Unseal(unique uint64, aad, box []byte) ([]byte, error) {
	nonce := make([]byte, e.seal.NonceSize())
	binary.LittleEndian.PutUint64(nonce, unique)
	pt, err := e.seal.Open(nil, nonce, box, aad)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}
