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

// AXPY8, AXPY12 and AXPY4 add one term of one tile row: skip when A(r,k)
// at aaddr is ±0 (its bits doubled are 0; NaN is not skipped, as in Go's
// av != 0), else broadcast it (Y10, or Y15) and fuse A(r,k)·B[k,:] (Y8,
// Y9, or Y12–Y14) into the row's accumulators with axpySIMD's operand
// roles.
#define AXPY8(aaddr, c0, c1) \
	MOVQ         aaddr, R15;  \
	ADDQ         R15, R15;    \
	JZ           4(PC);       \
	VBROADCASTSD aaddr, Y10;  \
	VFMADD231PD  Y8, Y10, c0; \
	VFMADD231PD  Y9, Y10, c1

#define AXPY12(aaddr, c0, c1, c2) \
	MOVQ         aaddr, R15;  \
	ADDQ         R15, R15;    \
	JZ           5(PC);       \
	VBROADCASTSD aaddr, Y15;  \
	VFMADD231PD  Y12, Y15, c0; \
	VFMADD231PD  Y13, Y15, c1; \
	VFMADD231PD  Y14, Y15, c2

#define AXPY4(aaddr, c0) \
	MOVQ         aaddr, R15; \
	ADDQ         R15, R15;   \
	JZ           3(PC);      \
	VBROADCASTSD aaddr, Y10; \
	VFMADD231PD  Y8, Y10, c0

// func axpyTileSIMD(a []float64, rs, ks, kn int, b, c []float64, ld, n, rows int, zero bool)
//
// rows ≤ 4 rows of C advance together through column tiles: four rows
// through 12-column tiles (row r in Y3r–Y3r+2) while 12 columns remain,
// then any rows through 8-column tiles (row r in Y2r, Y2r+1), then one
// 4-column tile if 4 columns remain. A tile's slice of C is loaded once
// (with zero, set to +0 by VXORPD instead, so C is not read), takes every
// k in ascending order, and is stored once. Each row count has its own k
// loop, so no row test runs per term.
TEXT ·axpyTileSIMD(SB), NOSPLIT, $0-121
	MOVQ   a_base+0(FP), SI
	MOVQ   rs+24(FP), R8
	SHLQ   $3, R8             // R8 = A row stride, bytes
	MOVQ   ks+32(FP), R9
	SHLQ   $3, R9             // R9 = A k stride, bytes
	MOVQ   kn+40(FP), R10
	MOVQ   b_base+48(FP), DI
	MOVQ   c_base+72(FP), DX
	MOVQ   ld+96(FP), R11
	SHLQ   $3, R11            // R11 = B and C row stride, bytes
	MOVQ   n+104(FP), CX
	MOVQ   rows+112(FP), R14
	LEAQ   (R8)(R8*2), R13    // R13 = 3 A rows
	CMPQ   R14, $4
	JNE    tile8

tile12:
	CMPQ    CX, $12
	JLT     tile8
	CMPB    zero+120(FP), $0
	JNE     z12
	LEAQ    (R11)(R11*2), AX  // AX = 3 C rows
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD (DX)(R11*1), Y3
	VMOVUPD 32(DX)(R11*1), Y4
	VMOVUPD 64(DX)(R11*1), Y5
	VMOVUPD (DX)(R11*2), Y6
	VMOVUPD 32(DX)(R11*2), Y7
	VMOVUPD 64(DX)(R11*2), Y8
	VMOVUPD (DX)(AX*1), Y9
	VMOVUPD 32(DX)(AX*1), Y10
	VMOVUPD 64(DX)(AX*1), Y11
	JMP     l12

z12:
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

l12:
	MOVQ    SI, AX            // AX = &A(0,k)
	MOVQ    DI, BX            // BX = &B[k, j]
	MOVQ    R10, R12

k12:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13
	VMOVUPD 64(BX), Y14
	AXPY12((AX), Y0, Y1, Y2)
	AXPY12((AX)(R8*1), Y3, Y4, Y5)
	AXPY12((AX)(R8*2), Y6, Y7, Y8)
	AXPY12((AX)(R13*1), Y9, Y10, Y11)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k12

	LEAQ    (R11)(R11*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, (DX)(R11*1)
	VMOVUPD Y4, 32(DX)(R11*1)
	VMOVUPD Y5, 64(DX)(R11*1)
	VMOVUPD Y6, (DX)(R11*2)
	VMOVUPD Y7, 32(DX)(R11*2)
	VMOVUPD Y8, 64(DX)(R11*2)
	VMOVUPD Y9, (DX)(AX*1)
	VMOVUPD Y10, 32(DX)(AX*1)
	VMOVUPD Y11, 64(DX)(AX*1)
	ADDQ    $96, DI
	ADDQ    $96, DX
	SUBQ    $12, CX
	JMP     tile12

tile8:
	CMPQ    CX, $8
	JLT     tile4
	CMPB    zero+120(FP), $0
	JNE     z8
	LEAQ    (R11)(R11*2), AX  // AX = 3 C rows
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	CMPQ    R14, $2
	JLT     l8
	VMOVUPD (DX)(R11*1), Y2
	VMOVUPD 32(DX)(R11*1), Y3
	CMPQ    R14, $3
	JLT     l8
	VMOVUPD (DX)(R11*2), Y4
	VMOVUPD 32(DX)(R11*2), Y5
	CMPQ    R14, $4
	JLT     l8
	VMOVUPD (DX)(AX*1), Y6
	VMOVUPD 32(DX)(AX*1), Y7
	JMP     l8

z8: // every row's accumulators, whatever rows is: they are not stored
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

l8:
	MOVQ SI, AX               // AX = &A(0,k)
	MOVQ DI, BX               // BX = &B[k, j]
	MOVQ R10, R12
	CMPQ R14, $2
	JLT  k8r1
	JEQ  k8r2
	CMPQ R14, $4
	JLT  k8r3

k8r4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXPY8((AX), Y0, Y1)
	AXPY8((AX)(R8*1), Y2, Y3)
	AXPY8((AX)(R8*2), Y4, Y5)
	AXPY8((AX)(R13*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k8r4
	JMP  s8

k8r3:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXPY8((AX), Y0, Y1)
	AXPY8((AX)(R8*1), Y2, Y3)
	AXPY8((AX)(R8*2), Y4, Y5)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k8r3
	JMP  s8

k8r2:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXPY8((AX), Y0, Y1)
	AXPY8((AX)(R8*1), Y2, Y3)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k8r2
	JMP  s8

k8r1:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXPY8((AX), Y0, Y1)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k8r1

s8:
	LEAQ    (R11)(R11*2), AX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	CMPQ    R14, $2
	JLT     n8
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	CMPQ    R14, $3
	JLT     n8
	VMOVUPD Y4, (DX)(R11*2)
	VMOVUPD Y5, 32(DX)(R11*2)
	CMPQ    R14, $4
	JLT     n8
	VMOVUPD Y6, (DX)(AX*1)
	VMOVUPD Y7, 32(DX)(AX*1)

n8:
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  tile8

tile4:
	TESTQ   CX, CX
	JZ      tiledone
	CMPB    zero+120(FP), $0
	JNE     z4
	LEAQ    (R11)(R11*2), AX
	VMOVUPD (DX), Y0
	CMPQ    R14, $2
	JLT     l4
	VMOVUPD (DX)(R11*1), Y2
	CMPQ    R14, $3
	JLT     l4
	VMOVUPD (DX)(R11*2), Y4
	CMPQ    R14, $4
	JLT     l4
	VMOVUPD (DX)(AX*1), Y6
	JMP     l4

z4:
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6

l4:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R10, R12
	CMPQ R14, $2
	JLT  k4r1
	JEQ  k4r2
	CMPQ R14, $4
	JLT  k4r3

k4r4:
	VMOVUPD (BX), Y8
	AXPY4((AX), Y0)
	AXPY4((AX)(R8*1), Y2)
	AXPY4((AX)(R8*2), Y4)
	AXPY4((AX)(R13*1), Y6)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k4r4
	JMP  s4

k4r3:
	VMOVUPD (BX), Y8
	AXPY4((AX), Y0)
	AXPY4((AX)(R8*1), Y2)
	AXPY4((AX)(R8*2), Y4)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k4r3
	JMP  s4

k4r2:
	VMOVUPD (BX), Y8
	AXPY4((AX), Y0)
	AXPY4((AX)(R8*1), Y2)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k4r2
	JMP  s4

k4r1:
	VMOVUPD (BX), Y8
	AXPY4((AX), Y0)
	ADDQ R9, AX
	ADDQ R11, BX
	DECQ R12
	JNZ  k4r1

s4:
	LEAQ    (R11)(R11*2), AX
	VMOVUPD Y0, (DX)
	CMPQ    R14, $2
	JLT     tiledone
	VMOVUPD Y2, (DX)(R11*1)
	CMPQ    R14, $3
	JLT     tiledone
	VMOVUPD Y4, (DX)(R11*2)
	CMPQ    R14, $4
	JLT     tiledone
	VMOVUPD Y6, (DX)(AX*1)

tiledone:
	VZEROUPPER
	RET

// dotmask<>+8(3−nb) is the store mask of nb dots: lanes j < nb set.
DATA dotmask<>+0(SB)/8, $-1
DATA dotmask<>+8(SB)/8, $-1
DATA dotmask<>+16(SB)/8, $-1
DATA dotmask<>+24(SB)/8, $0
DATA dotmask<>+32(SB)/8, $0
DATA dotmask<>+40(SB)/8, $0
GLOBL dotmask<>(SB), RODATA, $48

// STOREROW writes row y's first nb dots (lanes j < nb by the mask in Y15)
// to C at DI: as they are, or, when R9 (acc) is set, as c + d with c the
// first operand. Masked-off lanes are neither read nor written. Then it
// moves DI, R11 and the row counts on a row, and leaves for sdone after
// the group's last.
#define STOREROW(y) \
	TESTQ      R9, R9;         \
	JEQ        3(PC);          \
	VMASKMOVPD (DI), Y15, Y14; \
	VADDPD     y, Y14, y;      \
	VMASKMOVPD y, Y15, (DI);   \
	ADDQ       SI, DI;         \
	ADDQ       AX, R11;        \
	DECQ       R13;            \
	DECQ       CX;             \
	JZ         sdone

// TAILSTEP fuses one tail element into the twelve chains: col holds A(r,t)
// for the group's rows r (lanes), and each B row's B(j,t) at off(R8),
// off(R9), off(R10) is broadcast. Lane r of Yj is then the dot of row r
// with B row j, with A the multiplicand in the register operand and B in
// the other, as in the vector part.
#define TAILSTEP(col, off) \
	VBROADCASTSD off(R8), Y12;  \
	VBROADCASTSD off(R9), Y13;  \
	VBROADCASTSD off(R10), Y14; \
	VFMADD231PD  Y12, col, Y0;  \
	VFMADD231PD  Y13, col, Y1;  \
	VFMADD231PD  Y14, col, Y2

// LANES gathers the four partials at off(SP) into y, element by element:
// one 32-byte load of four 8-byte stores would wait for them to retire.
#define LANES(off, x, y) \
	VMOVSD      off(SP), x;        \
	VMOVHPD     off+8(SP), x, x;   \
	VMOVSD      off+16(SP), X15;   \
	VMOVHPD     off+24(SP), X15, X15; \
	VINSERTF128 $1, X15, y, y

// func dotRowsSIMD(a, b, c []float64, k, ldc, m, nb int, acc bool)
//
// The dots of every row r < m of A (k elements from a[r*k]) with 1 ≤ nb ≤ 3
// B rows (at b, b+k, b+2k), in groups of up to four A rows. The B rows a
// call lacks repeat its last one, and a short group repeats its last A
// row; those extra dots are computed and dropped.
//
// Every dot has one fixed order: four 4-wide FMA accumulators over the
// 16-element chunks (A the register multiplicand, B the other operand),
// combined as ((acc0+acc1)+(acc2+acc3)), low half + high half, then
// VHADDPD, and finished by the k%16 elements in ascending order, one
// fused multiply-add each. The vector part runs row by row, the dots of
// one A row sharing each loaded chunk of it (Y0–Y11; one B row has its
// own four-accumulator loop), and parks each combined partial in the
// frame. The tails of the group's rows then run together, one row per
// lane: B row j's chains are the lanes of Yj, and A's tail is transposed
// four elements at a time so that each step fuses one element into all
// twelve chains. Each chain still starts from its own partial and takes
// its own terms in order with the same operand roles, so the order, and
// every bit, is that of one dot at a time.
//
// Dot j of row r goes to c[r*ldc+j] for j < nb: stored as it is, or,
// with acc, added to what is there as c + d (GemmNTRows' accumulated
// form), one masked store per row. The frame holds the partials at
// 32j + 8r, the group's row count at 96, the three B row addresses at 104
// and the store mask at 128. An FMA's memory operand is never indexed:
// Intel cores split an indexed one into two micro-ops.
TEXT ·dotRowsSIMD(SB), NOSPLIT, $160-105
	MOVQ    a_base+0(FP), R11 // R11 = the group's first A row
	MOVQ    b_base+24(FP), R8
	MOVQ    c_base+48(FP), DI // DI = the group's first C row
	MOVQ    k+72(FP), AX
	SHLQ    $3, AX            // AX = A and B row stride, bytes
	MOVQ    nb+96(FP), CX
	LEAQ    (R8)(AX*1), R9
	CMPQ    CX, $2
	CMOVQLT R8, R9
	LEAQ    (R9)(AX*1), R10
	CMPQ    CX, $3
	CMOVQLT R9, R10
	MOVQ    R8, 104(SP)
	MOVQ    R9, 112(SP)
	MOVQ    R10, 120(SP)
	NEGQ    CX
	LEAQ    dotmask<>+24(SB), DX
	VMOVUPD (DX)(CX*8), Y0
	VMOVUPD Y0, 128(SP)
	MOVQ    AX, BX
	ANDQ    $-128, BX         // BX = the 16-element chunks, bytes
	MOVQ    m+88(FP), R13     // R13 = rows left
	TESTQ   R13, R13
	JZ      rowsdone

group:
	MOVQ    $4, CX
	CMPQ    R13, CX
	CMOVQLT R13, CX           // CX = g, the group's rows
	MOVQ    CX, 96(SP)
	MOVQ    R11, R14          // R14 = this A row
	XORQ    R12, R12          // R12 = this row's lane in the frame
	CMPQ    nb+96(FP), $1
	JEQ     vrow1

vrow:
	MOVQ   R14, SI
	MOVQ   104(SP), R8
	MOVQ   112(SP), R9
	MOVQ   120(SP), R10
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
	MOVQ   BX, DX
	SHRQ   $7, DX             // DX = chunks left
	JZ     vcombine

vloop:
	VMOVUPD     (SI), Y12
	VMOVUPD     32(SI), Y13
	VMOVUPD     64(SI), Y14
	VMOVUPD     96(SI), Y15
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
	ADDQ        $128, SI
	ADDQ        $128, R8
	ADDQ        $128, R9
	ADDQ        $128, R10
	DECQ        DX
	JNZ         vloop

vcombine:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	VADDPD       Y5, Y4, Y4
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VHADDPD      X4, X4, X4
	VADDPD       Y9, Y8, Y8
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD       X9, X8, X8
	VHADDPD      X8, X8, X8
	VMOVSD       X0, (SP)(R12*1)
	VMOVSD       X4, 32(SP)(R12*1)
	VMOVSD       X8, 64(SP)(R12*1)
	ADDQ         AX, R14
	ADDQ         $8, R12
	DECQ         CX
	JNZ          vrow
	JMP          pad

vrow1: // one B row: its four accumulators only, its partial in all three lanes
	MOVQ   R14, SI
	MOVQ   104(SP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, DX
	SHRQ   $7, DX
	JZ     vcombine1

vloop1:
	VMOVUPD     (SI), Y12
	VMOVUPD     32(SI), Y13
	VMOVUPD     64(SI), Y14
	VMOVUPD     96(SI), Y15
	VFMADD231PD (R8), Y12, Y0
	VFMADD231PD 32(R8), Y13, Y1
	VFMADD231PD 64(R8), Y14, Y2
	VFMADD231PD 96(R8), Y15, Y3
	ADDQ        $128, SI
	ADDQ        $128, R8
	DECQ        DX
	JNZ         vloop1

vcombine1:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       X0, (SP)(R12*1)
	VMOVSD       X0, 32(SP)(R12*1)
	VMOVSD       X0, 64(SP)(R12*1)
	ADDQ         AX, R14
	ADDQ         $8, R12
	DECQ         CX
	JNZ          vrow1

pad: // rows g..3 repeat row g-1: its partials here, its A row below
	CMPQ   R12, $32
	JGE    tail
	VMOVSD -8(SP)(R12*1), X0
	VMOVSD X0, (SP)(R12*1)
	VMOVSD 24(SP)(R12*1), X0
	VMOVSD X0, 32(SP)(R12*1)
	VMOVSD 56(SP)(R12*1), X0
	VMOVSD X0, 64(SP)(R12*1)
	ADDQ   $8, R12
	JMP    pad

tail:
	LANES(0, X0, Y0)
	LANES(32, X1, Y1)
	LANES(64, X2, Y2)
	CMPQ    BX, AX
	JGE     tdone             // k%16 == 0: no tail
	MOVQ    104(SP), R8       // R8–R10 = B's tails
	ADDQ    BX, R8
	MOVQ    112(SP), R9
	ADDQ    BX, R9
	MOVQ    120(SP), R10
	ADDQ    BX, R10
	MOVQ    96(SP), CX        // R11, SI, R12, CX = A rows 0–3 of the group
	DECQ    CX
	LEAQ    (R11)(AX*1), SI
	CMPQ    CX, $1
	CMOVQLT R11, SI
	LEAQ    (SI)(AX*1), R12
	CMPQ    CX, $2
	CMOVQLT SI, R12
	CMPQ    CX, $3
	LEAQ    (R12)(AX*1), CX
	CMOVQLT R12, CX
	MOVQ    BX, DX            // DX = offset into the A rows, bytes
	LEAQ    -32(AX), R14      // R14 = the last offset a block of four fits

t4:
	CMPQ       DX, R14
	JGT        t1
	VMOVUPD    (R11)(DX*1), Y4
	VMOVUPD    (SI)(DX*1), Y5
	VMOVUPD    (R12)(DX*1), Y6
	VMOVUPD    (CX)(DX*1), Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4 // A(·, t)
	VPERM2F128 $0x20, Y11, Y9, Y5 // A(·, t+1)
	VPERM2F128 $0x31, Y10, Y8, Y6 // A(·, t+2)
	VPERM2F128 $0x31, Y11, Y9, Y7 // A(·, t+3)
	TAILSTEP(Y4, 0)
	TAILSTEP(Y5, 8)
	TAILSTEP(Y6, 16)
	TAILSTEP(Y7, 24)
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, DX
	JMP        t4

t1:
	CMPQ        DX, AX
	JGE         tdone
	VMOVSD      (R11)(DX*1), X4
	VMOVHPD     (SI)(DX*1), X4, X4
	VMOVSD      (R12)(DX*1), X5
	VMOVHPD     (CX)(DX*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4 // A(·, t)
	TAILSTEP(Y4, 0)
	ADDQ        $8, R8
	ADDQ        $8, R9
	ADDQ        $8, R10
	ADDQ        $8, DX
	JMP         t1

tdone: // transpose Y0–Y2 (lane r, B row j) into rows Y8–Y11 (lane j)
	VXORPD     Y3, Y3, Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD    128(SP), Y15
	MOVBQZX    acc+104(FP), R9
	MOVQ       ldc+80(FP), SI
	SHLQ       $3, SI         // SI = C row stride, bytes
	MOVQ       96(SP), CX
	STOREROW(Y8)
	STOREROW(Y9)
	STOREROW(Y10)
	STOREROW(Y11)

sdone:
	TESTQ R13, R13
	JNZ   group

rowsdone:
	VZEROUPPER
	RET

// func addRowsSIMD(src, dst []float64, rows, n, ss, ds int)
//
// Row by row, dst[j] = dst[j] + src[j]: four at a time with VADDPD, then
// the n%4 tail two at a time (128-bit VADDPD) and one at a time
// (VADDSD). dst is loaded into the register that is the add's first
// source, so where both operands are NaNs the sum keeps dst's payload.
// Memory operands are not indexed, so each add stays one fused micro-op.
TEXT ·addRowsSIMD(SB), NOSPLIT, $0-80
	MOVQ  src_base+0(FP), R8  // R8 = this row of src
	MOVQ  dst_base+24(FP), R9 // R9 = this row of dst
	MOVQ  rows+48(FP), R10
	MOVQ  n+56(FP), BX
	MOVQ  ss+64(FP), R11
	SHLQ  $3, R11             // R11 = src row stride, bytes
	MOVQ  ds+72(FP), R12
	SHLQ  $3, R12             // R12 = dst row stride, bytes
	TESTQ R10, R10
	JZ    adddone
	TESTQ BX, BX
	JZ    adddone

addrow:
	MOVQ R8, SI
	MOVQ R9, DI
	MOVQ BX, CX
	SHRQ $2, CX
	JZ   addtail

add4:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     add4

addtail:
	TESTQ $2, BX
	JZ    add1
	VMOVUPD (DI), X0
	VADDPD  (SI), X0, X0
	VMOVUPD X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI

add1:
	TESTQ  $1, BX
	JZ     addnext
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)

addnext:
	ADDQ R11, R8
	ADDQ R12, R9
	DECQ R10
	JNZ  addrow

adddone:
	VZEROUPPER
	RET
