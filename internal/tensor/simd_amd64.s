//go:build amd64

#include "textflag.h"

// func x86HasAVX2FMA() bool
//
// CPUID.1:ECX must report OSXSAVE (27), AVX (28) and FMA (12); XCR0 must
// have SSE and AVX state enabled (bits 1 and 2); CPUID.7.0:EBX must report
// AVX2 (bit 5).
TEXT ·x86HasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $0x18001000, R8      // OSXSAVE | AVX | FMA
	CMPL R8, $0x18001000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX               // XCR0: SSE | AVX state
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX            // AVX2
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dotSIMD(x, y []float64) float64
//
// Four 4-wide FMA accumulators over 16 elements per iteration, combined in
// the fixed order ((acc0+acc1)+(acc2+acc3)) then low-to-high within the
// vector, then the scalar tail in ascending index order. The order is fixed
// per length, so results are bit-reproducible.
TEXT ·dotSIMD(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $4, DX               // DX = len/16
	JZ   combine

loop16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  loop16

combine:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0        // X0[0] = X0[0] + X0[1]

	ANDQ $15, CX              // tail length
	JZ   done

tail:
	VMOVSD (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tail

done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpySIMD(s float64, x, y []float64)
//
// y += s*x, two 4-wide FMAs per iteration plus a scalar tail. One fused
// multiply-add per element in ascending index order.
TEXT ·axpySIMD(SB), NOSPLIT, $0-56
	VBROADCASTSD s+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

	MOVQ CX, DX
	SHRQ $3, DX               // DX = len/8
	JZ   tailsetup

loop8:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  loop8

tailsetup:
	ANDQ $7, CX
	JZ   done2

tail2:
	VMOVSD (DI), X1
	VMOVSD (SI), X2
	VFMADD231SD X2, X0, X1    // X1 += X0.low * X2
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tail2

done2:
	VZEROUPPER
	RET

// AXPY8 and AXPY4 add one term of one tile row: with av = A(r,k) loaded
// from aaddr, skip when av == 0 (ZF set, PF clear: ±0 but not NaN, which is
// Go's av != 0), else broadcast s = av·alpha (X13) and fuse s·B[k,:] (Y8,
// Y9) into the row's accumulators with axpySIMD's operand roles. X12 is 0.
#define AXPY8(aaddr, c0, c1) \
	VMOVSD       aaddr, X10;     \
	VUCOMISD     X12, X10;       \
	JNE          2(PC);          \
	JPC          5(PC);          \
	VMULSD       X13, X10, X10;  \
	VBROADCASTSD X10, Y10;       \
	VFMADD231PD  Y8, Y10, c0;    \
	VFMADD231PD  Y9, Y10, c1

#define AXPY4(aaddr, c0) \
	VMOVSD       aaddr, X10;     \
	VUCOMISD     X12, X10;       \
	JNE          2(PC);          \
	JPC          4(PC);          \
	VMULSD       X13, X10, X10;  \
	VBROADCASTSD X10, Y10;       \
	VFMADD231PD  Y8, Y10, c0

// func axpyTileSIMD(alpha float64, a []float64, rs, ks, kn int, b, c []float64, ld, n int)
//
// Four rows of C advance together through 8-column tiles, then one 4-column
// tile if n%8 == 4. A tile's slice of C is loaded once into Y0–Y7, takes
// every k in ascending order, and is stored once.
TEXT ·axpyTileSIMD(SB), NOSPLIT, $0-120
	VMOVSD alpha+0(FP), X13
	MOVQ   a_base+8(FP), SI
	MOVQ   rs+32(FP), R8
	SHLQ   $3, R8             // R8 = A row stride, bytes
	MOVQ   ks+40(FP), R9
	SHLQ   $3, R9             // R9 = A k stride, bytes
	MOVQ   kn+48(FP), R10
	MOVQ   b_base+56(FP), DI
	MOVQ   c_base+80(FP), DX
	MOVQ   ld+104(FP), R11
	SHLQ   $3, R11            // R11 = B and C row stride, bytes
	MOVQ   n+112(FP), CX
	LEAQ   (R8)(R8*2), R13    // R13 = 3 A rows
	VXORPD X12, X12, X12

tile8:
	CMPQ CX, $8
	JLT  tile4
	LEAQ    (R11)(R11*2), AX  // AX = 3 C rows
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R11*1), Y2
	VMOVUPD 32(DX)(R11*1), Y3
	VMOVUPD (DX)(R11*2), Y4
	VMOVUPD 32(DX)(R11*2), Y5
	VMOVUPD (DX)(AX*1), Y6
	VMOVUPD 32(DX)(AX*1), Y7
	MOVQ    SI, AX            // AX = &A(0,k)
	MOVQ    DI, BX            // BX = &B[k, j]
	MOVQ    R10, R12

k8:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXPY8((AX), Y0, Y1)
	AXPY8((AX)(R8*1), Y2, Y3)
	AXPY8((AX)(R8*2), Y4, Y5)
	AXPY8((AX)(R13*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k8

	LEAQ    (R11)(R11*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (DX)(R11*2)
	VMOVUPD Y5, 32(DX)(R11*2)
	VMOVUPD Y6, (DX)(AX*1)
	VMOVUPD Y7, 32(DX)(AX*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX
	JMP     tile8

tile4:
	TESTQ CX, CX
	JZ    tiledone
	LEAQ    (R11)(R11*2), AX
	VMOVUPD (DX), Y0
	VMOVUPD (DX)(R11*1), Y2
	VMOVUPD (DX)(R11*2), Y4
	VMOVUPD (DX)(AX*1), Y6
	MOVQ    SI, AX
	MOVQ    DI, BX
	MOVQ    R10, R12

k4:
	VMOVUPD (BX), Y8
	AXPY4((AX), Y0)
	AXPY4((AX)(R8*1), Y2)
	AXPY4((AX)(R8*2), Y4)
	AXPY4((AX)(R13*1), Y6)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k4

	LEAQ    (R11)(R11*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y4, (DX)(R11*2)
	VMOVUPD Y6, (DX)(AX*1)

tiledone:
	VZEROUPPER
	RET

// func dot3RowsSIMD(a, b, c []float64, k, ldc, m int, acc bool)
//
// Three dotSIMD dots per row r < m of A (k elements from a[r*k]) against
// the three B rows at b, b+k and b+2k, sharing each loaded 16-element
// chunk of the A row: each dot keeps its own four accumulators (Y0–Y3,
// Y4–Y7, Y8–Y11), is combined in dotSIMD's order and finishes with
// dotSIMD's in-order scalar tail (the three tails run interleaved). Every
// FMA has dotSIMD's operand roles (A in a register, B from memory), so
// every dot has dotSIMD's bits. The three dots of row r go to c[r*ldc],
// c[r*ldc+1] and c[r*ldc+2]: stored as they are, or, with acc, added to
// what is there as c + d, GemmNTRows' beta = 1 combine.
TEXT ·dot3RowsSIMD(SB), NOSPLIT, $0-97
	MOVQ a_base+0(FP), R11
	MOVQ c_base+48(FP), DI
	MOVQ k+72(FP), AX
	MOVQ ldc+80(FP), R12
	SHLQ $3, R12              // R12 = C row stride, bytes
	MOVQ m+88(FP), R13
	TESTQ R13, R13
	JZ    rowsdone

row:
	MOVQ R11, SI
	MOVQ b_base+24(FP), R8
	LEAQ (R8)(AX*8), R9
	LEAQ (R9)(AX*8), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	MOVQ AX, DX
	SHRQ $4, DX               // DX = k/16
	JZ   rcombine

rloop:
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VMOVUPD 64(SI), Y14
	VMOVUPD 96(SI), Y15
	VFMADD231PD (R8), Y12, Y0
	VFMADD231PD 32(R8), Y13, Y1
	VFMADD231PD 64(R8), Y14, Y2
	VFMADD231PD 96(R8), Y15, Y3
	VFMADD231PD (R9), Y12, Y4
	VFMADD231PD 32(R9), Y13, Y5
	VFMADD231PD 64(R9), Y14, Y6
	VFMADD231PD 96(R9), Y15, Y7
	VFMADD231PD (R10), Y12, Y8
	VFMADD231PD 32(R10), Y13, Y9
	VFMADD231PD 64(R10), Y14, Y10
	VFMADD231PD 96(R10), Y15, Y11
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	DECQ DX
	JNZ  rloop

rcombine:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0

	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD X5, X4, X4
	VHADDPD X4, X4, X4

	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD X9, X8, X8
	VHADDPD X8, X8, X8

	MOVQ AX, CX
	ANDQ $15, CX              // tail length
	JZ   rstore

rtail:
	VMOVSD (SI), X12
	VFMADD231SD (R8), X12, X0
	VFMADD231SD (R9), X12, X4
	VFMADD231SD (R10), X12, X8
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JNZ  rtail

rstore:
	CMPB acc+96(FP), $0
	JEQ  rset
	VMOVSD (DI), X12
	VADDSD X0, X12, X0        // c + d
	VMOVSD 8(DI), X12
	VADDSD X4, X12, X4
	VMOVSD 16(DI), X12
	VADDSD X8, X12, X8

rset:
	VMOVSD X0, (DI)
	VMOVSD X4, 8(DI)
	VMOVSD X8, 16(DI)
	ADDQ R12, DI
	LEAQ (R11)(AX*8), R11
	DECQ R13
	JNZ  row

rowsdone:
	VZEROUPPER
	RET
