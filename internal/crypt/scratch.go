package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// Scratch holds caller-owned working buffers for the allocation-free line
// and node paths. The steady-state protected read/write path (engine
// Read/Write per 64 B line) must not allocate — the hardware it models
// certainly does not — and the kernels below achieve that by staging
// through Scratch instead of fresh slices (asserted by
// TestScratchPathsAllocFree, in the spirit of trace_alloc_test.go). Each
// computes exactly what its slow counterpart in oracle.go computes.
//
// The staging buffers exist because cipher.Block is an interface: escape
// analysis cannot see through Encrypt, so any local array passed to it is
// forced to the heap. Buffers reached through a long-lived *Scratch cost
// one allocation when the Scratch itself first escapes, not one per call.
//
// A Scratch belongs to exactly one goroutine; parallel work units (see
// internal/par) each own their own.
type Scratch struct {
	pad           [LineSize]byte      // OTP keystream for the line in flight
	stage         [LineSize]byte      // PRF input blocks for PadLineFromBase
	aesIn, aesOut [aes.BlockSize]byte // single-block AES staging
	base          [aes.BlockSize]byte // tweakBase output
}

// MaskBaseSize is the byte size of one cached tweak base (one AES block).
// Callers that keep per-line or per-node base planes slice them at this
// stride.
const MaskBaseSize = aes.BlockSize

// MaskBaseInto computes the tweak base — the first AES block of the
// two-block PRF — for (guaddr, id, domain) and writes it to dst, which
// must be at least aes.BlockSize bytes. The base depends only on the
// object's identity, not its counter, so callers that touch the same
// line or node repeatedly (the engine's per-line planes, the tree's
// per-node mask cache) compute it once and replay it through
// MaskFromBase / PadLineFromBase, halving the AES work of a MAC mask and
// shaving a block off every pad.
//
//mmt:hotpath
func (e *Engine) MaskBaseInto(guaddr uint64, id uint32, domain byte, dst []byte, s *Scratch) {
	in := s.aesIn[:]
	clear(in)
	binary.LittleEndian.PutUint64(in[0:8], guaddr)
	binary.LittleEndian.PutUint32(in[8:12], id)
	in[12] = domain
	e.block.Encrypt(dst[:aes.BlockSize], in)
}

// MaskFromBase finishes the MAC-mask PRF from a precomputed base:
// AES(base XOR (counter, mask lane)). Identical to the mask macMask
// derives for the (guaddr, id, domain) the base was built from.
//
//mmt:hotpath
func (e *Engine) MaskFromBase(base []byte, counter uint64, s *Scratch) uint64 {
	// Word-at-a-time staging: the PRF input is (counter, mask lane) XOR
	// base, built as two 64-bit stores instead of byte loops.
	in := s.aesIn[:]
	b0 := binary.LittleEndian.Uint64(base[0:8])
	b1 := binary.LittleEndian.Uint64(base[8:16])
	binary.LittleEndian.PutUint64(in[0:8], counter^b0)
	binary.LittleEndian.PutUint64(in[8:16], 0xFFFFFFFF^b1)
	e.block.Encrypt(s.aesOut[:], in)
	return binary.LittleEndian.Uint64(s.aesOut[:8])
}

// PadLineFromBase fills s.pad with the 64-byte OTP keystream for the line
// whose DomainPad base is base, at version counter: the keystream XORPad
// applies for the matching tweak, minus the per-call tweakBase AES.
//
//mmt:hotpath
func (e *Engine) PadLineFromBase(base []byte, counter uint64, s *Scratch) *[LineSize]byte {
	// Word-at-a-time staging: each PRF input block is (counter, lane) XOR
	// base — two 64-bit stores per block, no zeroing pass, no byte loops.
	// The lane index occupies bytes 8..11 with 12..15 zero, so the second
	// word is just uint64(lane) XOR the base's high word.
	in := s.stage[:]
	b0 := binary.LittleEndian.Uint64(base[0:8])
	b1 := binary.LittleEndian.Uint64(base[8:16])
	w0 := counter ^ b0
	for lane := 0; lane < LineSize/aes.BlockSize; lane++ {
		blk := in[lane*aes.BlockSize:]
		binary.LittleEndian.PutUint64(blk[0:8], w0)
		binary.LittleEndian.PutUint64(blk[8:16], uint64(lane)^b1)
	}
	for off := 0; off < LineSize; off += aes.BlockSize {
		e.block.Encrypt(s.pad[off:off+aes.BlockSize], in[off:off+aes.BlockSize])
	}
	return &s.pad
}

// XORLine XORs a LineSize line with a LineSize pad into dst, eight bytes
// at a time: with the pad from PadLineFromBase (or the engine's memoised
// per-line pad plane) it both encrypts and decrypts. line and dst may
// alias.
//
//mmt:hotpath
func XORLine(dst, line, pad []byte) {
	if len(line) != LineSize || len(dst) != LineSize || len(pad) < LineSize {
		//mmt:allow nopanic: caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: XORLine with %d -> %d bytes, want %d", len(line), len(dst), LineSize))
	}
	for i := 0; i < LineSize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(line[i:])^binary.LittleEndian.Uint64(pad[i:]))
	}
}

// LineHash is the GF(2^64) half of LineMAC: the eight ciphertext words
// of a LineSize line hashed at the secret point where they lie, plus the
// length-binding term. Callers with a cached DomainLineMAC mask (the
// engine's per-line mask cache) XOR it in themselves; LineMACBuf composes
// the two for everyone else.
//
//mmt:hotpath
func (e *Engine) LineHash(ct []byte, _ *Scratch) uint64 {
	if len(ct) != LineSize {
		//mmt:allow nopanic: caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: LineHash with %d bytes, want %d", len(ct), LineSize))
	}
	return e.mulx.EvalBlock((*[LineSize]byte)(ct)) ^ e.lineLen
}

// LineMACBuf is LineMAC computed through the caller's scratch buffers
// instead of fresh slices: hash, then base and mask back to back through
// s for a tweak nobody caches a base for. Identical output to LineMAC.
//
//mmt:hotpath
func (e *Engine) LineMACBuf(tw Tweak, ct []byte, s *Scratch) uint64 {
	e.MaskBaseInto(tw.GUAddr, tw.Line, DomainLineMAC, s.base[:], s)
	return e.LineHash(ct, s) ^ e.MaskFromBase(s.base[:], tw.Counter, s)
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
//
//mmt:hotpath
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
//
//mmt:hotpath
func (e *Engine) NodeMACBatch(guaddr uint64, jobs []NodeMACJob, out []uint64, s *Scratch) {
	e.NodeHashBatch(jobs, out, s)
	for i := range jobs {
		e.MaskBaseInto(guaddr, jobs[i].NodeID, DomainNodeMAC, s.base[:], s)
		out[i] ^= e.MaskFromBase(s.base[:], jobs[i].ParentCounter, s)
	}
}
