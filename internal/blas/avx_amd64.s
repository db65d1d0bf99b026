//go:build amd64 && !(cgoblas && cgo)

#include "textflag.h"

// AVX inner loops of the Gram and TRSM kernels (DESIGN.md §15). Every
// routine walks n doubles (a positive multiple of 4) four lanes at a time
// and evaluates each lane with exactly the multiply and add/subtract
// sequence of the scalar Go loop it replaces: VMULPD, VADDPD and VSUBPD
// only, never VFMADD, so the results are bit-identical to the pure-Go
// path. Each routine ends with VZEROUPPER before returning to SSE code.

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func syrkPairAVX(d0, d1, w0, w1, w2, w3 *float64, n int, c *[8]float64)
//
//	d0[j] += c[0]*w0[j] + c[1]*w1[j] + c[2]*w2[j] + c[3]*w3[j]
//	d1[j] += c[4]*w0[j] + c[5]*w1[j] + c[6]*w2[j] + c[7]*w3[j]
//
// Y0–Y7 hold the broadcast coefficients, Y8–Y11 the four source rows,
// Y12/Y13 and Y14/Y15 the two accumulation chains.
TEXT ·syrkPairAVX(SB), NOSPLIT, $0-64
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ c+56(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	XORQ BX, BX
	JMP  syrkpaircheck

syrkpairloop:
	VMOVUPD (R8)(BX*8), Y8
	VMOVUPD (R9)(BX*8), Y9
	VMOVUPD (R10)(BX*8), Y10
	VMOVUPD (R11)(BX*8), Y11
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VADDPD  (DI)(BX*8), Y12, Y12
	VMOVUPD Y12, (DI)(BX*8)
	VMULPD  Y8, Y4, Y14
	VMULPD  Y9, Y5, Y15
	VADDPD  Y15, Y14, Y14
	VMULPD  Y10, Y6, Y15
	VADDPD  Y15, Y14, Y14
	VMULPD  Y11, Y7, Y15
	VADDPD  Y15, Y14, Y14
	VADDPD  (SI)(BX*8), Y14, Y14
	VMOVUPD Y14, (SI)(BX*8)
	ADDQ    $4, BX

syrkpaircheck:
	CMPQ BX, CX
	JLT  syrkpairloop
	VZEROUPPER
	RET

// func trsmPairAVX(x0, x1, w0, w1, w2, w3 *float64, n int, c *[8]float64)
//
//	x0[j] -= c[0]*w0[j] + c[1]*w1[j] + c[2]*w2[j] + c[3]*w3[j]
//	x1[j] -= c[4]*w0[j] + c[5]*w1[j] + c[6]*w2[j] + c[7]*w3[j]
//
// The register plan of syrkPairAVX; the old x is loaded into the freed
// product register so the subtraction keeps the scalar x - (sum) order.
TEXT ·trsmPairAVX(SB), NOSPLIT, $0-64
	MOVQ x0+0(FP), DI
	MOVQ x1+8(FP), SI
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ c+56(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	XORQ BX, BX
	JMP  trsmpaircheck

trsmpairloop:
	VMOVUPD (R8)(BX*8), Y8
	VMOVUPD (R9)(BX*8), Y9
	VMOVUPD (R10)(BX*8), Y10
	VMOVUPD (R11)(BX*8), Y11
	VMULPD  Y8, Y0, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (DI)(BX*8), Y13
	VSUBPD  Y12, Y13, Y13
	VMOVUPD Y13, (DI)(BX*8)
	VMULPD  Y8, Y4, Y14
	VMULPD  Y9, Y5, Y15
	VADDPD  Y15, Y14, Y14
	VMULPD  Y10, Y6, Y15
	VADDPD  Y15, Y14, Y14
	VMULPD  Y11, Y7, Y15
	VADDPD  Y15, Y14, Y14
	VMOVUPD (SI)(BX*8), Y15
	VSUBPD  Y14, Y15, Y15
	VMOVUPD Y15, (SI)(BX*8)
	ADDQ    $4, BX

trsmpaircheck:
	CMPQ BX, CX
	JLT  trsmpairloop
	VZEROUPPER
	RET

// func syrkRowAVX(d, w0, w1, w2, w3 *float64, n int, c *[4]float64)
//
//	d[j] += c[0]*w0[j] + c[1]*w1[j] + c[2]*w2[j] + c[3]*w3[j]
//
// Y0–Y3 hold the coefficients, Y4–Y7 the source rows, Y8/Y9 the chain.
TEXT ·syrkRowAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ w0+8(FP), R8
	MOVQ w1+16(FP), R9
	MOVQ w2+24(FP), R10
	MOVQ w3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ c+48(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ BX, BX
	JMP  syrkrowcheck

syrkrowloop:
	VMULPD  (R8)(BX*8), Y0, Y8
	VMULPD  (R9)(BX*8), Y1, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R10)(BX*8), Y2, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R11)(BX*8), Y3, Y9
	VADDPD  Y9, Y8, Y8
	VADDPD  (DI)(BX*8), Y8, Y8
	VMOVUPD Y8, (DI)(BX*8)
	ADDQ    $4, BX

syrkrowcheck:
	CMPQ BX, CX
	JLT  syrkrowloop
	VZEROUPPER
	RET

// func trsmRank1AVX(x0, x1, x2, x3, r *float64, n int, v *[4]float64)
//
//	xi[j] -= v[i]*r[j]   for i = 0..3
//
// Y0–Y3 hold the coefficients, Y4 the shared R row, Y5–Y12 the four
// product/difference pairs.
TEXT ·trsmRank1AVX(SB), NOSPLIT, $0-56
	MOVQ x0+0(FP), DI
	MOVQ x1+8(FP), SI
	MOVQ x2+16(FP), R8
	MOVQ x3+24(FP), R9
	MOVQ r+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ v+48(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ BX, BX
	JMP  trsmrank1check

trsmrank1loop:
	VMOVUPD (R10)(BX*8), Y4
	VMULPD  Y4, Y0, Y5
	VMOVUPD (DI)(BX*8), Y6
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)(BX*8)
	VMULPD  Y4, Y1, Y7
	VMOVUPD (SI)(BX*8), Y8
	VSUBPD  Y7, Y8, Y8
	VMOVUPD Y8, (SI)(BX*8)
	VMULPD  Y4, Y2, Y9
	VMOVUPD (R8)(BX*8), Y10
	VSUBPD  Y9, Y10, Y10
	VMOVUPD Y10, (R8)(BX*8)
	VMULPD  Y4, Y3, Y11
	VMOVUPD (R9)(BX*8), Y12
	VSUBPD  Y11, Y12, Y12
	VMOVUPD Y12, (R9)(BX*8)
	ADDQ    $4, BX

trsmrank1check:
	CMPQ BX, CX
	JLT  trsmrank1loop
	VZEROUPPER
	RET
