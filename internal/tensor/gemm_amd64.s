#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 = OSXSAVE, bit 28 = AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func sgemm4AVX(a *float32, lda int, b, c *float32, kb, cols, ld int)
//
// Register use: SI = a (row 0 of the tile at column k0), R15 = lda in bytes,
// DI = b at the current column block, DX/R10 = C rows 0/1 at the current
// column block (rows 2/3 are the same plus 2·ld), R9 = ld in bytes, CX = kb,
// R8 = columns left. Inside a block AX/R11 walk A rows 0/1 (rows 2/3 are
// addressed from them plus 2·lda), R13 walks B and R14 counts kk down.
// Y0–Y7 hold the C accumulators, Y8/Y9 the B vectors, Y10 the broadcast A
// scalar and Y11 the product. Each update is a VMULPS then a VADDPS: two
// roundings, as in the portable c[j] += float32(a*v). FMA would round once
// and break bit-identity with the Go kernels. Operands are ordered as the
// compiled Go loop orders them (B first in the product, the product first in
// the sum), because when both inputs are NaN x86 returns the first one, so
// even NaN payloads propagate exactly as in the portable kernel.
TEXT ·sgemm4AVX(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R15
	SHLQ $2, R15
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ kb+32(FP), CX
	MOVQ cols+40(FP), R8
	MOVQ ld+48(FP), R9
	SHLQ $2, R9
	LEAQ (DX)(R9*1), R10
	TESTQ CX, CX
	JZ   done

block16:
	CMPQ R8, $16
	JLT  block8
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (R10), Y2
	VMOVUPS 32(R10), Y3
	VMOVUPS (DX)(R9*2), Y4
	VMOVUPS 32(DX)(R9*2), Y5
	VMOVUPS (R10)(R9*2), Y6
	VMOVUPS 32(R10)(R9*2), Y7
	MOVQ SI, AX
	LEAQ (SI)(R15*1), R11
	MOVQ DI, R13
	MOVQ CX, R14

k16:
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	VBROADCASTSS (AX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y0, Y11, Y0
	VMULPS Y10, Y9, Y11
	VADDPS Y1, Y11, Y1
	VBROADCASTSS (R11), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y2, Y11, Y2
	VMULPS Y10, Y9, Y11
	VADDPS Y3, Y11, Y3
	VBROADCASTSS (AX)(R15*2), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y4, Y11, Y4
	VMULPS Y10, Y9, Y11
	VADDPS Y5, Y11, Y5
	VBROADCASTSS (R11)(R15*2), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y6, Y11, Y6
	VMULPS Y10, Y9, Y11
	VADDPS Y7, Y11, Y7
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ R9, R13
	DECQ R14
	JNZ  k16

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	VMOVUPS Y4, (DX)(R9*2)
	VMOVUPS Y5, 32(DX)(R9*2)
	VMOVUPS Y6, (R10)(R9*2)
	VMOVUPS Y7, 32(R10)(R9*2)
	ADDQ $64, DX
	ADDQ $64, R10
	ADDQ $64, DI
	SUBQ $16, R8
	JMP  block16

block8:
	CMPQ R8, $8
	JLT  block4
	VMOVUPS (DX), Y0
	VMOVUPS (R10), Y2
	VMOVUPS (DX)(R9*2), Y4
	VMOVUPS (R10)(R9*2), Y6
	MOVQ SI, AX
	LEAQ (SI)(R15*1), R11
	MOVQ DI, R13
	MOVQ CX, R14

k8:
	VMOVUPS (R13), Y8
	VBROADCASTSS (AX), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y0, Y11, Y0
	VBROADCASTSS (R11), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y2, Y11, Y2
	VBROADCASTSS (AX)(R15*2), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y4, Y11, Y4
	VBROADCASTSS (R11)(R15*2), Y10
	VMULPS Y10, Y8, Y11
	VADDPS Y6, Y11, Y6
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ R9, R13
	DECQ R14
	JNZ  k8

	VMOVUPS Y0, (DX)
	VMOVUPS Y2, (R10)
	VMOVUPS Y4, (DX)(R9*2)
	VMOVUPS Y6, (R10)(R9*2)
	ADDQ $32, DX
	ADDQ $32, R10
	ADDQ $32, DI
	SUBQ $8, R8

block4:
	CMPQ R8, $4
	JLT  done
	VMOVUPS (DX), X0
	VMOVUPS (R10), X2
	VMOVUPS (DX)(R9*2), X4
	VMOVUPS (R10)(R9*2), X6
	MOVQ SI, AX
	LEAQ (SI)(R15*1), R11
	MOVQ DI, R13
	MOVQ CX, R14

k4:
	VMOVUPS (R13), X8
	VBROADCASTSS (AX), X10
	VMULPS X10, X8, X11
	VADDPS X0, X11, X0
	VBROADCASTSS (R11), X10
	VMULPS X10, X8, X11
	VADDPS X2, X11, X2
	VBROADCASTSS (AX)(R15*2), X10
	VMULPS X10, X8, X11
	VADDPS X4, X11, X4
	VBROADCASTSS (R11)(R15*2), X10
	VMULPS X10, X8, X11
	VADDPS X6, X11, X6
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ R9, R13
	DECQ R14
	JNZ  k4

	VMOVUPS X0, (DX)
	VMOVUPS X2, (R10)
	VMOVUPS X4, (DX)(R9*2)
	VMOVUPS X6, (R10)(R9*2)

done:
	VZEROUPPER
	RET
