//go:build amd64

#include "textflag.h"

// The constants of math.Exp's amd64 kernel (src/math/exp_amd64.s), written
// as the same literals. expbcast<> holds the ones broadcast into Y8–Y15
// before the loop; expvec<> holds four-lane copies of the rest, which the
// loop reads as 256-bit memory operands. No legacy-SSE instruction touches
// a vector register inside the loop: one such transition per group costs
// more than the whole group's arithmetic.
DATA expbcast<>+0(SB)/8, $-708.0                                       // lowest x the kernel takes
DATA expbcast<>+8(SB)/8, $709.78                                       // highest x the kernel takes
DATA expbcast<>+16(SB)/8, $1.4426950408889634073599246810018920        // LOG2E
DATA expbcast<>+24(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expbcast<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expbcast<>+40(SB)/8, $0.0625
DATA expbcast<>+48(SB)/8, $2.0
DATA expbcast<>+56(SB)/8, $1.0
GLOBL expbcast<>(SB), RODATA, $64

#define EXPVEC(off, v) \
	DATA expvec<>+off+0(SB)/8, v; \
	DATA expvec<>+off+8(SB)/8, v; \
	DATA expvec<>+off+16(SB)/8, v; \
	DATA expvec<>+off+24(SB)/8, v

EXPVEC(0, $2.4801587301587301587e-5)
EXPVEC(32, $1.9841269841269841270e-4)
EXPVEC(64, $1.3888888888888888889e-3)
EXPVEC(96, $8.3333333333333333333e-3)
EXPVEC(128, $4.1666666666666666667e-2)
EXPVEC(160, $1.6666666666666666667e-1)
EXPVEC(192, $0.5)
EXPVEC(224, $0x3FF)                     // exponent bias, as int64 lanes
GLOBL expvec<>(SB), RODATA, $256

// func expSIMD(x []float64) int
//
// Overwrites x four elements at a time with math.Exp's FMA path, op for op:
// k = round(x·LOG2E) by VCVTPD2DQ (MXCSR rounding, as CVTSD2SL), the two
// fused LN2U/LN2L reduction steps, the scale by 1/16, the degree-8 Horner
// polynomial, the four y·(y+2) squarings, the final fused +1, and the
// product with 2^k built from k+1023 in the exponent field. Every lane of
// a group must lie in [−708, 709.78], where math.Exp takes that path with
// a normal 2^k or overflows to +Inf at k = 1024 (here 0x7FF<<52 is +Inf,
// so fr·2^k is +Inf too). It stops before the first group holding a lane
// outside that range (NaN included) or before a tail of fewer than four,
// and returns how many elements it wrote.
TEXT ·expSIMD(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	SHRQ $2, CX                       // CX = groups of four
	JZ   expdone

	VBROADCASTSD expbcast<>+0(SB), Y15
	VBROADCASTSD expbcast<>+8(SB), Y14
	VBROADCASTSD expbcast<>+16(SB), Y13
	VBROADCASTSD expbcast<>+24(SB), Y12
	VBROADCASTSD expbcast<>+32(SB), Y11
	VBROADCASTSD expbcast<>+40(SB), Y10
	VBROADCASTSD expbcast<>+48(SB), Y9
	VBROADCASTSD expbcast<>+56(SB), Y8

exploop:
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x12, Y0, Y15, Y1      // −708 ≤ x (LE_OQ: false on NaN)
	VCMPPD    $0x12, Y14, Y0, Y5      // x ≤ 709.78
	VANDPD    Y5, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPL      DX, $15
	JNE       expdone

	VMULPD       Y13, Y0, Y1          // x·LOG2E
	VCVTPD2DQY   Y1, X2               // k
	VCVTDQ2PD    X2, Y3
	VFNMADD231PD Y12, Y3, Y0          // r = x − k·LN2U
	VFNMADD231PD Y11, Y3, Y0          // r −= k·LN2L
	VMULPD       Y10, Y0, Y0          // r /= 16

	VMOVUPD     expvec<>+0(SB), Y1
	VFMADD213PD expvec<>+32(SB), Y0, Y1
	VFMADD213PD expvec<>+64(SB), Y0, Y1
	VFMADD213PD expvec<>+96(SB), Y0, Y1
	VFMADD213PD expvec<>+128(SB), Y0, Y1
	VFMADD213PD expvec<>+160(SB), Y0, Y1
	VFMADD213PD expvec<>+192(SB), Y0, Y1
	VFMADD213PD Y8, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VFMADD213PD Y8, Y1, Y0            // fr = y·(y+2) + 1

	VPMOVSXDQ X2, Y4                  // 2^k: (k+1023) << 52
	VPADDQ    expvec<>+224(SB), Y4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)

	ADDQ $4, AX
	DECQ CX
	JNZ  exploop

expdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
