//go:build amd64

#include "textflag.h"

// The softmax head's kernels over a class-major block: c ≥ 1 rows of b,
// class j's row at z + 8bj. Each takes the first b&^3 samples in groups
// of four, one group's four lanes of every class row per step, in
// ascending class order. Every two-operand op names its sources in the row-at-a-time
// head's order (the first source is the one the Go code names first), so
// a lane's NaN payload is the one that head keeps. Only VEX instructions
// touch a vector register: one legacy-SSE op in a loop costs more than the
// loop's arithmetic.

DATA headconst<>+0(SB)/8, $1.0
DATA headconst<>+8(SB)/8, $1 // one class, as an int64 lane
GLOBL headconst<>(SB), RODATA, $16

// func headMaxShiftSIMD(z []float64, b, c int, mx []float64)
//
// Per group: the running maximum starts at class 0's lanes and takes each
// later class row v as VMAXPD(v, max), which keeps max unless v > max
// (false on a NaN either side and on ±0 ties): mathx.ArgMax's first
// strict maximum per lane. It is stored to mx, then subtracted from every class
// row as v − max.
TEXT ·headMaxShiftSIMD(SB), NOSPLIT, $0-64
	MOVQ z_base+0(FP), SI
	MOVQ b+24(FP), R9
	MOVQ c+32(FP), CX
	MOVQ mx_base+40(FP), DI
	MOVQ R9, R8
	SHLQ $3, R8                // row stride in bytes
	SHRQ $2, R9                // groups of four samples
	JZ   msdone

msgroup:
	VMOVUPD (SI), Y0           // running max: class 0
	LEAQ    (SI)(R8*1), DX
	MOVQ    CX, R10
	DECQ    R10
	JZ      msstore

msmax:
	VMOVUPD (DX), Y1
	VMAXPD  Y0, Y1, Y0         // Y0 = Y1 > Y0 ? Y1 : Y0
	ADDQ    R8, DX
	DECQ    R10
	JNZ     msmax

msstore:
	VMOVUPD Y0, (DI)
	MOVQ    SI, DX
	MOVQ    CX, R10

msshift:
	VMOVUPD (DX), Y1
	VSUBPD  Y0, Y1, Y1         // logit − max
	VMOVUPD Y1, (DX)
	ADDQ    R8, DX
	DECQ    R10
	JNZ     msshift

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R9
	JNZ  msgroup

msdone:
	VZEROUPPER
	RET

// func headSumsSIMD(z []float64, b, c int, s []float64)
//
// Per group: s = +0, then s + e for each class row e in ascending order.
TEXT ·headSumsSIMD(SB), NOSPLIT, $0-64
	MOVQ z_base+0(FP), SI
	MOVQ b+24(FP), R9
	MOVQ c+32(FP), CX
	MOVQ s_base+40(FP), DI
	MOVQ R9, R8
	SHLQ $3, R8
	SHRQ $2, R9
	JZ   sdone

sgroup:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   CX, R10

ssum:
	VADDPD (DX), Y0, Y0        // s + e
	ADDQ   R8, DX
	DECQ   R10
	JNZ    ssum

	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    R9
	JNZ     sgroup

sdone:
	VZEROUPPER
	RET

// func headGradSIMD(z []float64, b, c int, s []float64, y []int, inv float64, db []float64)
//
// Per group: r = 1/s, then for each class row e: p = e·r, p − m with m
// 1.0 in the lanes whose label is the class and +0 in the others (x − +0
// is x for every x, −0 and NaN included), and p·inv, stored back. With
// len(db) > 0 the four lanes are added into db[j] one at a time, lane 0
// first, as p + db[j] (p the first source).
TEXT ·headGradSIMD(SB), NOSPLIT, $0-120
	MOVQ         z_base+0(FP), SI
	MOVQ         b+24(FP), R9
	MOVQ         c+32(FP), CX
	MOVQ         s_base+40(FP), DI
	MOVQ         y_base+64(FP), AX
	VBROADCASTSD inv+88(FP), Y15
	MOVQ         db_base+96(FP), R11
	MOVQ         db_len+104(FP), R12
	VBROADCASTSD headconst<>+0(SB), Y14 // 1.0
	VPBROADCASTQ headconst<>+8(SB), Y13 // int64 1
	MOVQ         R9, R8
	SHLQ         $3, R8
	SHRQ         $2, R9
	JZ           gdone

ggroup:
	VMOVUPD (DI), Y0
	VDIVPD  Y0, Y14, Y1        // 1/s
	VMOVDQU (AX), Y2           // labels
	VPXOR   Y3, Y3, Y3         // class j, as int64 lanes
	MOVQ    SI, DX
	MOVQ    R11, BX
	MOVQ    CX, R10

gclass:
	VPCMPEQQ Y3, Y2, Y4
	VANDPD   Y14, Y4, Y4       // 1.0 where the label is j, +0 elsewhere
	VMOVUPD  (DX), Y5
	VMULPD   Y1, Y5, Y5        // e · (1/s)
	VSUBPD   Y4, Y5, Y5        // − 1{y = j}
	VMULPD   Y15, Y5, Y5       // · inv
	VMOVUPD  Y5, (DX)
	TESTQ    R12, R12
	JZ       gnext
	VMOVSD       (BX), X6
	VADDSD       X6, X5, X6    // lane 0 + db[j]
	VPERMILPD    $1, X5, X7
	VADDSD       X6, X7, X6    // lane 1 + that
	VEXTRACTF128 $1, Y5, X8
	VADDSD       X6, X8, X6    // lane 2 + that
	VPERMILPD    $1, X8, X7
	VADDSD       X6, X7, X6    // lane 3 + that
	VMOVSD       X6, (BX)
	ADDQ         $8, BX

gnext:
	VPADDQ Y13, Y3, Y3
	ADDQ   R8, DX
	DECQ   R10
	JNZ    gclass

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, AX
	DECQ R9
	JNZ  ggroup

gdone:
	VZEROUPPER
	RET

// func headArgMaxSIMD(pred []int, z []float64, b, c int)
//
// Per group: best starts at class 0's lanes and index 0; each later class
// row v replaces both where v > best (GT_OQ: false on a NaN either side
// and on ties), mathx.ArgMax's first strict maximum per lane.
TEXT ·headArgMaxSIMD(SB), NOSPLIT, $0-64
	MOVQ         pred_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         b+48(FP), R9
	MOVQ         c+56(FP), CX
	VPBROADCASTQ headconst<>+8(SB), Y13
	MOVQ         R9, R8
	SHLQ         $3, R8
	SHRQ         $2, R9
	JZ           adone

agroup:
	VMOVUPD (SI), Y0           // best value
	VPXOR   Y1, Y1, Y1         // its class
	VPXOR   Y2, Y2, Y2         // class j
	LEAQ    (SI)(R8*1), DX
	MOVQ    CX, R10
	DECQ    R10
	JZ      astore

aclass:
	VPADDQ    Y13, Y2, Y2
	VMOVUPD   (DX), Y3
	VCMPPD    $0x1e, Y0, Y3, Y4 // v > best
	VBLENDVPD Y4, Y3, Y0, Y0
	VBLENDVPD Y4, Y2, Y1, Y1
	ADDQ      R8, DX
	DECQ      R10
	JNZ       aclass

astore:
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    R9
	JNZ     agroup

adone:
	VZEROUPPER
	RET

// func transposeSIMD(dst, src []float64, n, m int, bias []float64)
//
// dst (m×n) = srcᵀ (src n×m, m ≥ 1) on dst's first n&^3 columns: per
// group of four src rows, each src column's four elements are gathered
// into one vector (two VMOVSD/VMOVHPD pairs and a VINSERTF128) and stored
// to the group's four lanes of the dst row. With len(bias) > 0 the row's bias is
// added as bias + x, bias the first source.
TEXT ·transposeSIMD(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), R9
	MOVQ m+56(FP), CX
	MOVQ bias_base+64(FP), BX
	MOVQ bias_len+72(FP), R12
	MOVQ CX, R8
	SHLQ $3, R8                // src row stride in bytes
	MOVQ R9, R11
	SHLQ $3, R11               // dst row stride in bytes
	SHRQ $2, R9                // groups of four src rows
	JZ   tdone

tgroup:
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ BX, R13
	MOVQ CX, R10

tcol:
	LEAQ        (AX)(R8*2), R14
	VMOVSD      (AX), X0
	VMOVHPD     (AX)(R8*1), X0, X0
	VMOVSD      (R14), X1
	VMOVHPD     (R14)(R8*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	TESTQ       R12, R12
	JZ          tstore
	VBROADCASTSD (R13), Y2
	VADDPD       Y0, Y2, Y0    // bias + x
	ADDQ         $8, R13

tstore:
	VMOVUPD Y0, (DX)
	ADDQ    $8, AX
	ADDQ    R11, DX
	DECQ    R10
	JNZ     tcol

	LEAQ (SI)(R8*4), SI
	ADDQ $32, DI
	DECQ R9
	JNZ  tgroup

tdone:
	VZEROUPPER
	RET
