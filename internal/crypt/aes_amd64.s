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

// func aesniBlocks(rk *padKeys, dst, src *byte, n int)
//
// The eleven round keys live in X5–X15 for the whole call; X0–X3 carry
// four blocks per iteration and X0 alone the up to three left over. Every
// block is loaded before any is stored, so dst == src is in place. MOVOU
// tolerates any alignment.
TEXT ·aesniBlocks(SB), NOSPLIT, $0-32
	MOVQ  rk+0(FP), AX
	MOVQ  dst+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), CX
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

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
