//go:build !purego

#include "textflag.h"

// func dot(c, p *uint64, n int, a, b uint64) uint64
//
// X0 accumulates the unreduced 128-bit sum a⊗b ⊕ Σ c[i]⊗p[i], two words
// per iteration: one 16-byte load from each side, the low halves
// multiplied by selector $0x00 and the high halves by $0x11. MOVOU
// tolerates any alignment.
TEXT ·dot(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ a+24(FP), X0
	MOVQ b+32(FP), X1
	PCLMULQDQ $0x00, X1, X0
	SUBQ $2, CX
	JLT  tail

pair:
	MOVOU (SI), X1
	MOVOU (DI), X2
	MOVO  X1, X3
	PCLMULQDQ $0x00, X2, X1
	PCLMULQDQ $0x11, X2, X3
	PXOR  X3, X1
	PXOR  X1, X0
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $2, CX
	JGE   pair

tail:
	ADDQ $2, CX
	JEQ  reduce
	MOVQ (SI), X1
	MOVQ (DI), X2
	PCLMULQDQ $0x00, X2, X1
	PXOR X1, X0

reduce:
	// X0 = hi:lo, and x^64 ≡ 0x1B, so the value is lo ⊕ hi⊗0x1B. That
	// product has up to 68 bits; its own high word t (at most 4 bits)
	// folds the same way and t⊗0x1B fits a byte, ending the chain.
	MOVQ $0x1B, AX
	MOVQ AX, X2
	MOVO X0, X1
	PCLMULQDQ $0x01, X2, X1
	MOVO X1, X3
	PCLMULQDQ $0x01, X2, X3
	PXOR X1, X0
	PXOR X3, X0
	MOVQ X0, ret+40(FP)
	RET

// func dotLE(c *byte, p *uint64, n int, a, b uint64) uint64
TEXT ·dotLE(SB), NOSPLIT, $0-48
	JMP ·dot(SB)

// func evalBlocks(blocks *byte, n int, p, out *uint64)
//
// X8..X11 hold the powers p[0..7] and X12 the reduction constant for the
// whole call. Each block is four 16-byte loads and eight multiplies — low
// halves by selector $0x00, high halves by $0x11, as in dot — summed into
// X0 and reduced exactly as dot reduces. Nothing carries from one block to
// the next, so their multiplies overlap.
TEXT ·evalBlocks(SB), NOSPLIT, $0-32
	MOVQ  blocks+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVQ  p+16(FP), DI
	MOVQ  out+24(FP), DX
	TESTQ CX, CX
	JEQ   done
	MOVOU (DI), X8
	MOVOU 16(DI), X9
	MOVOU 32(DI), X10
	MOVOU 48(DI), X11
	MOVQ  $0x1B, AX
	MOVQ  AX, X12

block:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVO  X0, X4
	MOVO  X1, X5
	MOVO  X2, X6
	MOVO  X3, X7
	PCLMULQDQ $0x00, X8, X0
	PCLMULQDQ $0x11, X8, X4
	PCLMULQDQ $0x00, X9, X1
	PCLMULQDQ $0x11, X9, X5
	PCLMULQDQ $0x00, X10, X2
	PCLMULQDQ $0x11, X10, X6
	PCLMULQDQ $0x00, X11, X3
	PCLMULQDQ $0x11, X11, X7
	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	PXOR  X1, X0
	PXOR  X3, X2
	PXOR  X2, X0
	MOVO  X0, X1
	PCLMULQDQ $0x01, X12, X1
	MOVO  X1, X3
	PCLMULQDQ $0x01, X12, X3
	PXOR  X1, X0
	PXOR  X3, X0
	MOVQ  X0, (DX)
	ADDQ  $64, SI
	ADDQ  $8, DX
	DECQ  CX
	JNE   block

done:
	RET

// func hasCLMUL() bool
TEXT ·hasCLMUL(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
