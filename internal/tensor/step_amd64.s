//go:build amd64

#include "textflag.h"

// The local step's kernels (step.go): over the first len&^3 elements,
// eight at a time and then a last four, every operation rounded on its own
// and written with the Go step's left operand as the first source (in
// Go's operand order, the middle one), so that where both operands are
// NaNs a lane keeps the payload the scalar code keeps. A memory operand is
// always the second source. One byte offset, AX, walks every slice.
//
// Registers of the two step kernels: DI dst, SI w, R8 v, R9 g1, R10 g2,
// R11 base, R12 the anchor a; Y13 = −η, Y14 = ημ, Y15 = 1/(1+ημ) in every
// lane; DL the id flag (μ = 0).

// DIR loads the direction u = (g1 − g2) + base of the four elements at
// AX+off into y and, unless v (R8) is nil, stores it to v.
#define DIR(off, y) \
	VMOVUPD off(R9)(AX*1), y;     \
	VSUBPD  off(R10)(AX*1), y, y; \
	VADDPD  off(R11)(AX*1), y, y; \
	TESTQ   R8, R8;               \
	JZ      2(PC);                \
	VMOVUPD y, off(R8)(AX*1)

// STEP turns the direction in y into the proximal step of the four
// elements at AX+off and stores it to dst: x = u·(−η) + w, then, unless
// id, (x + a·ημ)·(1/(1+ημ)), with a loaded into the scratch register t.
#define STEP(off, y, t) \
	VMULPD  Y13, y, y;           \
	VADDPD  off(SI)(AX*1), y, y; \
	TESTB   DL, DL;              \
	JNZ     5(PC);               \
	VMOVUPD off(R12)(AX*1), t;   \
	VMULPD  Y14, t, t;           \
	VADDPD  t, y, y;             \
	VMULPD  Y15, y, y;           \
	VMOVUPD y, off(DI)(AX*1)

// COEFS broadcasts the step's coefficients and loads the id flag, whose
// argument offsets differ between the two step kernels.
#define COEFS(neg, em, inv, id) \
	VBROADCASTSD neg, Y13; \
	VBROADCASTSD em, Y14;  \
	VBROADCASTSD inv, Y15; \
	MOVBLZX      id, DX

// func proxStepSIMD(dst, w, v, a []float64, neg, em, inv float64, id bool)
TEXT ·proxStepSIMD(SB), NOSPLIT, $0-121
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ v_base+48(FP), R8
	MOVQ a_base+72(FP), R12
	COEFS(neg+96(FP), em+104(FP), inv+112(FP), id+120(FP))
	XORQ AX, AX
	MOVQ BX, CX
	SHRQ $3, CX
	JZ   proxfour

proxloop:
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD 32(R8)(AX*1), Y2
	STEP(0, Y0, Y1)
	STEP(32, Y2, Y3)
	ADDQ    $64, AX
	DECQ    CX
	JNZ     proxloop

proxfour:
	TESTQ   $4, BX
	JZ      proxdone
	VMOVUPD (R8)(AX*1), Y0
	STEP(0, Y0, Y1)

proxdone:
	VZEROUPPER
	RET

// func vrStepSIMD(dst, w, v, g1, g2, base, a []float64, neg, em, inv float64, id bool)
//
// Each group of four reads base and w before it writes v and dst, so v
// may be base and dst may be w.
TEXT ·vrStepSIMD(SB), NOSPLIT, $0-193
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ v_base+48(FP), R8
	MOVQ g1_base+72(FP), R9
	MOVQ g2_base+96(FP), R10
	MOVQ base_base+120(FP), R11
	MOVQ a_base+144(FP), R12
	COEFS(neg+168(FP), em+176(FP), inv+184(FP), id+192(FP))
	XORQ AX, AX
	MOVQ BX, CX
	SHRQ $3, CX
	JZ   vrfour

vrloop:
	DIR(0, Y0)
	DIR(32, Y2)
	STEP(0, Y0, Y1)
	STEP(32, Y2, Y3)
	ADDQ $64, AX
	DECQ CX
	JNZ  vrloop

vrfour:
	TESTQ $4, BX
	JZ    vrdone
	DIR(0, Y0)
	STEP(0, Y0, Y1)

vrdone:
	VZEROUPPER
	RET

// AXPY stores x·a + y of the four elements at AX+off to y (x at SI, y at
// DI, a in every lane of Y15), the product rounded before the add.
#define AXPY(off, r) \
	VMOVUPD off(SI)(AX*1), r;    \
	VMULPD  Y15, r, r;           \
	VADDPD  off(DI)(AX*1), r, r; \
	VMOVUPD r, off(DI)(AX*1)

// func axpyNoFMASIMD(a float64, x, y []float64)
TEXT ·axpyNoFMASIMD(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y15
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), BX
	MOVQ         y_base+32(FP), DI
	XORQ         AX, AX
	MOVQ         BX, CX
	SHRQ         $3, CX
	JZ           axpyfour

axpyloop:
	AXPY(0, Y0)
	AXPY(32, Y1)
	ADDQ $64, AX
	DECQ CX
	JNZ  axpyloop

axpyfour:
	TESTQ $4, BX
	JZ    axpydone
	AXPY(0, Y0)

axpydone:
	VZEROUPPER
	RET
