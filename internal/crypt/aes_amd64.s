//go:build !purego

#include "textflag.h"

// KEYROUND derives the next AES-128 round key from the one in X0 and
// stores it at the next 16 bytes of DI. AESKEYGENASSIST leaves
// SubWord(RotWord(w3)) ⊕ rcon in the top dword of X1; the three
// shift-and-XORs turn (w0, w1, w2, w3) into the running prefix XORs
// (w0, w0⊕w1, …) that FIPS-197 §5.2 reaches one word at a time.
#define KEYROUND(rcon) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	MOVO   X0, X2; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PXOR   X1, X0; \
	ADDQ   $16, DI; \
	MOVOU  X0, (DI)

// func expandKey(rk *padKeys, key *Key)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU (SI), X0
	MOVOU X0, (DI)
	KEYROUND(0x01)
	KEYROUND(0x02)
	KEYROUND(0x04)
	KEYROUND(0x08)
	KEYROUND(0x10)
	KEYROUND(0x20)
	KEYROUND(0x40)
	KEYROUND(0x80)
	KEYROUND(0x1b)
	KEYROUND(0x36)
	RET

// ROUND4 applies one round, key K, to the four blocks in flight. The four
// AESENCs are independent, so each issues while the previous ones are
// still in the pipeline: a round of four costs about what a round of one
// does.
#define ROUND4(K) \
	AESENC K, X0; \
	AESENC K, X1; \
	AESENC K, X2; \
	AESENC K, X3

// ROUND8 is ROUND4 at ymm width: one round, key K broadcast to both lanes,
// to the eight blocks in Y0–Y3.
#define ROUND8(K) \
	VAESENC K, Y0, Y0; \
	VAESENC K, Y1, Y1; \
	VAESENC K, Y2, Y2; \
	VAESENC K, Y3, Y3

// func aesniBlocks(rk *padKeys, dst, src *byte, n int, wide bool)
//
// The eleven round keys live in X5–X15 for the whole call. With wide,
// VBROADCASTI128 puts each in both lanes of Y5–Y15 and Y0–Y3 carry eight
// blocks per iteration while eight are left; VZEROUPPER then clears the
// upper lanes, which leaves the keys in X5–X15 for the xmm loop and keeps
// its legacy-SSE instructions off the AVX transition penalty. The xmm
// loop takes X0–X3 four blocks per iteration and X0 alone the up to three
// left over. Every block of an iteration is loaded before any is stored,
// so dst == src is in place. MOVOU and VMOVDQU tolerate any alignment.
TEXT ·aesniBlocks(SB), NOSPLIT, $0-33
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), CX
	CMPB  wide+32(FP), $0
	JEQ   xmm
	CMPQ  CX, $8
	JLT   xmm
	VBROADCASTI128 0(AX), Y5
	VBROADCASTI128 16(AX), Y6
	VBROADCASTI128 32(AX), Y7
	VBROADCASTI128 48(AX), Y8
	VBROADCASTI128 64(AX), Y9
	VBROADCASTI128 80(AX), Y10
	VBROADCASTI128 96(AX), Y11
	VBROADCASTI128 112(AX), Y12
	VBROADCASTI128 128(AX), Y13
	VBROADCASTI128 144(AX), Y14
	VBROADCASTI128 160(AX), Y15
	SUBQ  $8, CX

octet:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   Y5, Y0, Y0
	VPXOR   Y5, Y1, Y1
	VPXOR   Y5, Y2, Y2
	VPXOR   Y5, Y3, Y3
	ROUND8(Y6)
	ROUND8(Y7)
	ROUND8(Y8)
	ROUND8(Y9)
	ROUND8(Y10)
	ROUND8(Y11)
	ROUND8(Y12)
	ROUND8(Y13)
	ROUND8(Y14)
	VAESENCLAST Y15, Y0, Y0
	VAESENCLAST Y15, Y1, Y1
	VAESENCLAST Y15, Y2, Y2
	VAESENCLAST Y15, Y3, Y3
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $8, CX
	JGE     octet
	ADDQ    $8, CX
	VZEROUPPER
	JMP     rest

xmm:
	MOVOU 0(AX), X5
	MOVOU 16(AX), X6
	MOVOU 32(AX), X7
	MOVOU 48(AX), X8
	MOVOU 64(AX), X9
	MOVOU 80(AX), X10
	MOVOU 96(AX), X11
	MOVOU 112(AX), X12
	MOVOU 128(AX), X13
	MOVOU 144(AX), X14
	MOVOU 160(AX), X15

rest:
	SUBQ  $4, CX
	JLT   tail

quad:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	PXOR  X5, X0
	PXOR  X5, X1
	PXOR  X5, X2
	PXOR  X5, X3
	ROUND4(X6)
	ROUND4(X7)
	ROUND4(X8)
	ROUND4(X9)
	ROUND4(X10)
	ROUND4(X11)
	ROUND4(X12)
	ROUND4(X13)
	ROUND4(X14)
	AESENCLAST X15, X0
	AESENCLAST X15, X1
	AESENCLAST X15, X2
	AESENCLAST X15, X3
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ  $64, SI
	ADDQ  $64, DI
	SUBQ  $4, CX
	JGE   quad

tail:
	ADDQ $4, CX
	JEQ  done

single:
	MOVOU (SI), X0
	PXOR  X5, X0
	AESENC X6, X0
	AESENC X7, X0
	AESENC X8, X0
	AESENC X9, X0
	AESENC X10, X0
	AESENC X11, X0
	AESENC X12, X0
	AESENC X13, X0
	AESENC X14, X0
	AESENCLAST X15, X0
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JNE   single

done:
	RET

// func xorLinesSSE2(dst, src, keys *byte, n int)
//
// One 64-byte line per iteration: four unaligned loads of the line and
// four of its keystream (PXOR's memory form would demand 16-byte
// alignment), four PXORs, four stores. keys steps by a whole record, so
// the mask block behind each keystream is never read.
TEXT ·xorLinesSSE2(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  keys+16(FP), DX
	MOVQ  n+24(FP), CX
	TESTQ CX, CX
	JEQ   done

line:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 0(DX), X4
	MOVOU 16(DX), X5
	MOVOU 32(DX), X6
	MOVOU 48(DX), X7
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ  $64, SI
	ADDQ  $64, DI
	ADDQ  $80, DX
	DECQ  CX
	JNE   line

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL CX, ecx+12(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func stageLineKeysSSE2(bases *byte, ctrs *uint64, keys *byte, n int)
//
// X9–X12 hold the lanes (1, 2, 3 and the mask lane) in the high quadword,
// lane 0 being zero; per line MOVQ zero-extends the counter into X0, which
// both bases take in their low quadword, and each block is a register
// copy, one PXOR and one 16-byte store, so AES's 16-byte loads of them
// are forwarded whole. Lane 0 needs no PXOR and lane 3 and the mask block
// take theirs in place.
TEXT ·stageLineKeysSSE2(SB), NOSPLIT, $0-32
	MOVQ  bases+0(FP), SI
	MOVQ  ctrs+8(FP), BX
	MOVQ  keys+16(FP), DI
	MOVQ  n+24(FP), CX
	TESTQ CX, CX
	JEQ   done
	MOVQ  $1, AX
	MOVQ  AX, X9
	PSLLDQ $8, X9
	MOVQ  $2, AX
	MOVQ  AX, X10
	PSLLDQ $8, X10
	MOVQ  $3, AX
	MOVQ  AX, X11
	PSLLDQ $8, X11
	MOVQ  $0xFFFFFFFF, AX
	MOVQ  AX, X12
	PSLLDQ $8, X12

line:
	MOVQ  (BX), X0
	MOVOU 0(SI), X1
	MOVOU 16(SI), X2
	PXOR  X0, X1
	PXOR  X0, X2
	MOVOU X1, 0(DI)
	MOVO  X1, X3
	PXOR  X9, X3
	MOVOU X3, 16(DI)
	MOVO  X1, X4
	PXOR  X10, X4
	MOVOU X4, 32(DI)
	PXOR  X11, X1
	MOVOU X1, 48(DI)
	PXOR  X12, X2
	MOVOU X2, 64(DI)
	ADDQ  $32, SI
	ADDQ  $8, BX
	ADDQ  $80, DI
	DECQ  CX
	JNE   line

done:
	RET
