package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// Scratch holds caller-owned staging for the engine-layer kernels whose
// result is a value rather than bytes in a caller's buffer: the keystream
// PadLineFromBase returns a pointer to, and the one PRF block behind a
// mask (MaskFromBase, LineMACBuf, NodeMACBatch). Each kernel writes its
// PRF input there and encrypts it in place, so the steady-state protected
// read/write path does not allocate — the hardware it models certainly
// does not — (asserted by TestScratchPathsAllocFree), and each computes
// exactly what its slow counterpart in oracle.go computes.
//
// The AES-NI encryptBlocks lets nothing escape, so on amd64 a stack array
// would do; the staging lives in a Scratch because the portable twin
// reaches AES through the cipher.Block interface, which forces whatever it
// is handed to the heap. Buffers reached through a long-lived *Scratch
// cost one allocation when the Scratch itself first escapes, not one per
// call. The batch kernels (LineBases, LineKeys, MaskBases, MasksFromBases)
// need none: they stage in the caller's destination.
//
// A Scratch belongs to exactly one goroutine; parallel work units (see
// internal/par) each own their own.
type Scratch struct {
	pad [LineSize]byte      // OTP keystream for the line in flight
	blk [aes.BlockSize]byte // one PRF block: a base, then the mask made from it
}

// MaskBaseSize is the byte size of one cached tweak base (one AES block).
// Callers that keep per-line or per-node base planes slice them at this
// stride.
const MaskBaseSize = aes.BlockSize

// The two-block tweak PRF is AES(AES(guaddr ‖ id ‖ domain) ⊕ (counter ‖
// lane)): a first level that depends only on an object's identity (its
// "base") and a second that adds the version. Blocks of one level never
// depend on each other, so every kernel below stages all the inputs of a
// level and makes one encryptBlocks call for them.

// maskLane is the second-level lane of a MAC mask; pad keystream blocks
// use lanes 0…3.
const maskLane = 0xFFFFFFFF

// block is one AES block of staging, as a type so that the helpers below
// index it without bounds checks.
type block = [aes.BlockSize]byte

// baseInput writes the first-level PRF input for (guaddr, id, domain).
func baseInput(blk *block, guaddr uint64, id uint32, domain byte) {
	binary.LittleEndian.PutUint64(blk[0:8], guaddr)
	binary.LittleEndian.PutUint64(blk[8:16], uint64(id)|uint64(domain)<<32)
}

// laneInput writes the second-level PRF input base ⊕ (counter ‖ lane), as
// two 64-bit stores: the lane occupies bytes 8..11 with 12..15 zero. blk
// may be base itself.
func laneInput(blk, base *block, counter uint64, lane uint32) {
	b0 := binary.LittleEndian.Uint64(base[0:8])
	b1 := binary.LittleEndian.Uint64(base[8:16])
	binary.LittleEndian.PutUint64(blk[0:8], counter^b0)
	binary.LittleEndian.PutUint64(blk[8:16], uint64(lane)^b1)
}

// padInput writes the four second-level inputs of a line's keystream:
// lanes 0…3 over one base and counter.
func padInput(dst *[LineSize]byte, base *block, counter uint64) {
	laneInput((*block)(dst[0:]), base, counter, 0)
	laneInput((*block)(dst[16:]), base, counter, 1)
	laneInput((*block)(dst[32:]), base, counter, 2)
	laneInput((*block)(dst[48:]), base, counter, 3)
}

// MaskBaseInto computes the tweak base — the first AES block of the
// two-block PRF — for (guaddr, id, domain) and writes it to dst, which
// must be at least aes.BlockSize bytes. The base depends only on the
// object's identity, not its counter, so callers that touch the same
// line or node repeatedly (the engine's per-line planes, the tree's
// per-node mask cache) compute it once and replay it through
// MaskFromBase / PadLineFromBase, halving the AES work of a MAC mask and
// shaving a block off every pad. MaskBases is the form for several ids.
func (e *Engine) MaskBaseInto(guaddr uint64, id uint32, domain byte, dst []byte, _ *Scratch) {
	dst = dst[:aes.BlockSize]
	baseInput((*block)(dst), guaddr, id, domain)
	e.encryptBlocks(dst, dst)
}

// MaskBases is MaskBaseInto for the ids of one domain at once: id i's base
// lands at dst[i*MaskBaseSize:], all of them from one encryptBlocks call.
func (e *Engine) MaskBases(guaddr uint64, domain byte, ids []uint32, dst []byte) {
	dst = dst[:len(ids)*MaskBaseSize]
	for i, id := range ids {
		baseInput((*block)(dst[i*MaskBaseSize:]), guaddr, id, domain)
	}
	e.encryptBlocks(dst, dst)
}

// MaskFromBase finishes the MAC-mask PRF from a precomputed base:
// AES(base XOR (counter, mask lane)). Identical to the mask macMask
// derives for the (guaddr, id, domain) the base was built from.
// MasksFromBases is the form for several bases.
func (e *Engine) MaskFromBase(base []byte, counter uint64, s *Scratch) uint64 {
	laneInput(&s.blk, (*block)(base), counter, maskLane)
	e.encryptBlocks(s.blk[:], s.blk[:])
	return Mask(s.blk[:])
}

// MasksFromBases is MaskFromBase for len(ctrs) bases at once, in place:
// blk holds base i at blk[i*MaskBaseSize:] on entry and, on return, the
// PRF block whose Mask is that base's mask at ctrs[i] — all of them from
// one encryptBlocks call.
func (e *Engine) MasksFromBases(blk []byte, ctrs []uint64) {
	blk = blk[:len(ctrs)*MaskBaseSize]
	for i, ctr := range ctrs {
		b := (*block)(blk[i*MaskBaseSize:])
		laneInput(b, b, ctr, maskLane)
	}
	e.encryptBlocks(blk, blk)
}

// Mask reads the MAC mask out of a finished PRF block: its first eight
// bytes, little-endian.
func Mask(blk []byte) uint64 { return binary.LittleEndian.Uint64(blk[:8]) }

// PadLineFromBase fills s.pad with the 64-byte OTP keystream for the line
// whose DomainPad base is base, at version counter: the keystream XORPad
// applies for the matching tweak, minus the per-call tweakBase AES — four
// blocks, one encryptBlocks call.
func (e *Engine) PadLineFromBase(base []byte, counter uint64, s *Scratch) *[LineSize]byte {
	padInput(&s.pad, (*block)(base), counter)
	e.encryptBlocks(s.pad[:], s.pad[:])
	return &s.pad
}

// A line's cached AES state, as the engine's line planes lay it out so
// that each PRF level of a run of lines is one contiguous stretch of
// blocks: LineBasesSize bytes of bases (DomainPad, then DomainLineMAC) and
// LineKeysSize bytes of keys (the LineSize keystream, then the PRF block
// whose Mask is the line-MAC mask).
const (
	LineBasesSize = 2 * MaskBaseSize
	LineKeysSize  = LineSize + aes.BlockSize
)

// LineBases derives both tweak bases of the len(dst)/LineBasesSize
// consecutive lines starting at line, in place in dst: two blocks per
// line, one encryptBlocks call for all of them.
func (e *Engine) LineBases(guaddr uint64, line uint32, dst []byte) {
	dst = dst[:len(dst)/LineBasesSize*LineBasesSize]
	for off := 0; off < len(dst); off, line = off+LineBasesSize, line+1 {
		baseInput((*block)(dst[off:]), guaddr, line, DomainPad)
		baseInput((*block)(dst[off+MaskBaseSize:]), guaddr, line, DomainLineMAC)
	}
	e.encryptBlocks(dst, dst)
}

// LineKeys derives, for each i < len(ctrs), the keystream and line-MAC
// mask block of the line whose bases are bases[i*LineBasesSize:] at
// version ctrs[i], in place in keys[i*LineKeysSize:]: five blocks per
// line, staged by stageLineKeys (an SSE2 routine on amd64) and encrypted
// by one encryptBlocks call for all of them. The keystream is what
// PadLineFromBase returns and Mask of the trailing block what
// MaskFromBase returns.
func (e *Engine) LineKeys(bases []byte, ctrs []uint64, keys []byte) {
	keys = keys[:len(ctrs)*LineKeysSize]
	stageLineKeys(bases[:len(ctrs)*LineBasesSize], ctrs, keys)
	e.encryptBlocks(keys, keys)
}

// XORLine XORs a LineSize line with a LineSize pad into dst, eight bytes
// at a time: with the pad from PadLineFromBase (or the engine's memoised
// per-line pad plane) it both encrypts and decrypts. line and dst may
// alias.
func XORLine(dst, line, pad []byte) {
	if len(line) != LineSize || len(dst) != LineSize || len(pad) < LineSize {
		// caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: XORLine with %d -> %d bytes, want %d", len(line), len(dst), LineSize))
	}
	xorLine((*[LineSize]byte)(dst), (*[LineSize]byte)(line), (*[LineSize]byte)(pad))
}

// xorLine is XORLine on lines the caller has already sized: every word is
// loaded before any is stored, so dst may be line itself. Written out word
// by word because the eight-step loop it replaces cost 3 ns more per line
// in OpenLines (11.0 against 14.0 ns, best of six). A run of lines goes
// through xorLines, the SSE2 kernel on amd64.
func xorLine(dst, line, pad *[LineSize]byte) {
	w0 := binary.LittleEndian.Uint64(line[0:]) ^ binary.LittleEndian.Uint64(pad[0:])
	w1 := binary.LittleEndian.Uint64(line[8:]) ^ binary.LittleEndian.Uint64(pad[8:])
	w2 := binary.LittleEndian.Uint64(line[16:]) ^ binary.LittleEndian.Uint64(pad[16:])
	w3 := binary.LittleEndian.Uint64(line[24:]) ^ binary.LittleEndian.Uint64(pad[24:])
	w4 := binary.LittleEndian.Uint64(line[32:]) ^ binary.LittleEndian.Uint64(pad[32:])
	w5 := binary.LittleEndian.Uint64(line[40:]) ^ binary.LittleEndian.Uint64(pad[40:])
	w6 := binary.LittleEndian.Uint64(line[48:]) ^ binary.LittleEndian.Uint64(pad[48:])
	w7 := binary.LittleEndian.Uint64(line[56:]) ^ binary.LittleEndian.Uint64(pad[56:])
	binary.LittleEndian.PutUint64(dst[0:], w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
	binary.LittleEndian.PutUint64(dst[24:], w3)
	binary.LittleEndian.PutUint64(dst[32:], w4)
	binary.LittleEndian.PutUint64(dst[40:], w5)
	binary.LittleEndian.PutUint64(dst[48:], w6)
	binary.LittleEndian.PutUint64(dst[56:], w7)
}

// LineHash is the GF(2^64) half of LineMAC: the eight ciphertext words
// of a LineSize line hashed at the secret point where they lie, plus the
// length-binding term. Callers with a cached DomainLineMAC mask (the
// engine's per-line mask cache) XOR it in themselves; LineMACBuf composes
// the two for everyone else.
func (e *Engine) LineHash(ct []byte, _ *Scratch) uint64 {
	if len(ct) != LineSize {
		// caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: LineHash with %d bytes, want %d", len(ct), LineSize))
	}
	return e.mulx.EvalBlock((*[LineSize]byte)(ct)) ^ e.lineLen
}

// LineHashes is LineHash for the len(ct)/LineSize consecutive lines of ct,
// line i's hash written to out[i]: one entry into the dot-product kernel
// for a whole run. len(out) must be at least the line count.
func (e *Engine) LineHashes(ct []byte, out []uint64) {
	e.mulx.EvalBlocks(ct, out)
	for i := range out[:len(ct)/LineSize] {
		out[i] ^= e.lineLen
	}
}

// SealLines is the write path's line crypto for a run of len(macs) lines
// in one call: ct = src XOR keystream, then macs[i] = LineHash(ct line i)
// XOR mask, with line i's keystream and mask block read from its
// LineKeysSize record in keys as LineKeys wrote it. ct and src may be the
// same lines (Enable encrypts in place).
func (e *Engine) SealLines(ct, src, keys []byte, macs []uint64) {
	n := len(macs)
	ct, keys = ct[:n*LineSize], keys[:n*LineKeysSize]
	xorLines(ct, src, keys, n)
	e.LineHashes(ct, macs)
	for i := range macs {
		macs[i] ^= Mask(keys[i*LineKeysSize+LineSize:])
	}
}

// OpenLines is the read path's line crypto for a run of len(macs) lines in
// one call: line i of ct is checked against macs[i] — LineHash XOR the
// mask block of its LineKeysSize record in keys, compared in constant time
// — and then decrypted into dst with the record's keystream. It stops at
// the first line whose MAC does not match and returns its index, having
// written only the lines before it; a return of len(macs) is a clean run.
//
// Each line is hashed where it is decrypted, one EvalBlock at a time: the
// line is loaded once and nothing is staged, so a run of one costs what a
// single line costs. Hashing the run ahead through LineHashes, as SealLines
// does, was measured and is no faster here — a read has no store in front
// of the hash for the batch to get out of the way of — while its stack
// staging cost the single-line read 3 to 6 %.
func (e *Engine) OpenLines(dst, ct, keys []byte, macs []uint64) (good int) {
	n := len(macs)
	dst, ct, keys = dst[:n*LineSize], ct[:n*LineSize], keys[:n*LineKeysSize]
	for i := range n {
		rec := keys[i*LineKeysSize : (i+1)*LineKeysSize]
		line := (*[LineSize]byte)(ct[i*LineSize:])
		// Constant-time compare: the stored line MAC is untrusted
		// (meta-zone) and a variable-time == would leak matching tag bytes
		// to a prober.
		if !TagEqual(e.mulx.EvalBlock(line)^e.lineLen^Mask(rec[LineSize:]), macs[i]) {
			return i
		}
		xorLine((*[LineSize]byte)(dst[i*LineSize:]), line, (*[LineSize]byte)(rec))
	}
	return n
}

// CheckLines is the MAC half of OpenLines for a run of len(macs) lines:
// each line of ct is checked against macs[i] as OpenLines checks it, and
// nothing is decrypted. It returns the first line whose MAC does not match,
// len(macs) for a clean run. XORLines is the other half; a span cut across
// processors runs the two apart, so that no line is decrypted before the
// caller has verified its tree path.
func (e *Engine) CheckLines(ct, keys []byte, macs []uint64) (good int) {
	n := len(macs)
	ct, keys = ct[:n*LineSize], keys[:n*LineKeysSize]
	for i := range n {
		// Constant-time compare, as in OpenLines.
		if !TagEqual(e.mulx.EvalBlock((*[LineSize]byte)(ct[i*LineSize:]))^e.lineLen^Mask(keys[i*LineKeysSize+LineSize:]), macs[i]) {
			return i
		}
	}
	return n
}

// XORLines XORs each of the len(dst)/LineSize lines of src with the
// keystream of its LineKeysSize record in keys into dst, in one XOR-kernel
// call: the decryption half of OpenLines. dst may be src.
func XORLines(dst, src, keys []byte) {
	xorLines(dst, src, keys, len(dst)/LineSize)
}

// LineMACBuf is LineMAC computed through the caller's scratch buffers
// instead of fresh slices: hash, then base and mask back to back through
// s for a tweak nobody caches a base for. Identical output to LineMAC.
func (e *Engine) LineMACBuf(tw Tweak, ct []byte, s *Scratch) uint64 {
	e.MaskBaseInto(tw.GUAddr, tw.Line, DomainLineMAC, s.blk[:], s)
	return e.LineHash(ct, s) ^ e.MaskFromBase(s.blk[:], tw.Counter, s)
}

// NodeMACJob describes one node MAC of a batch: the inputs NodeMAC takes,
// minus the shared guaddr.
type NodeMACJob struct {
	NodeID        uint32
	ParentCounter uint64
	Arity         uint64
	// Packed is the node's stored counter words (global word + packed
	// 16-bit locals), usually a direct sub-slice of the tree's counter
	// arena. The slice is only read.
	Packed []uint64
}

// NodeHashBatch computes the GF halves of several node MACs, writing job
// j's hash (NOT masked) to out[j]: NodeHash per job, each polynomial its
// job's Packed arena sub-slice used in place. Callers that cache per-node
// masks XOR them in themselves; NodeMACBatch composes hash and mask for
// everyone else.
//
// len(out) must be >= len(jobs).
func (e *Engine) NodeHashBatch(jobs []NodeMACJob, out []uint64, _ *Scratch) {
	for i := range jobs {
		out[i] = e.NodeHash(jobs[i].ParentCounter, jobs[i].Arity, jobs[i].Packed)
	}
}

// NodeMACBatch computes the MACs of several tree nodes at once, writing
// job j's MAC to out[j]. Output is identical to calling NodeMAC per job.
// The tree composes NodeHash with its cached masks; this form serves
// everyone without a mask cache.
//
// len(out) must be >= len(jobs).
func (e *Engine) NodeMACBatch(guaddr uint64, jobs []NodeMACJob, out []uint64, s *Scratch) {
	e.NodeHashBatch(jobs, out, s)
	for i := range jobs {
		e.MaskBaseInto(guaddr, jobs[i].NodeID, DomainNodeMAC, s.blk[:], s)
		out[i] ^= e.MaskFromBase(s.blk[:], jobs[i].ParentCounter, s)
	}
}
