//go:build amd64

package tensor

// simdEnabled reports whether the AVX2+FMA kernels are usable on this CPU.
// Checked once at init; the scalar kernels remain the reference semantics
// on machines without AVX2.
var simdEnabled = x86HasAVX2FMA()

// x86HasAVX2FMA reports CPU and OS support for AVX2 and FMA3
// (CPUID feature bits plus XCR0 state enablement). Implemented in assembly.
func x86HasAVX2FMA() bool

// dotSIMD computes Σ x[i]*y[i] with 4×4-wide FMA accumulators and a fixed
// combine order. len(y) must be ≥ len(x). Implemented in assembly.
func dotSIMD(x, y []float64) float64

// axpySIMD computes y[i] += s*x[i] with 2×4-wide FMA. len(y) must be
// ≥ len(x). Implemented in assembly.
func axpySIMD(s float64, x, y []float64)

// dot3SIMD computes the three dots of x with y0, y1 and y2, each with
// dotSIMD's layout and therefore its bits. Each y must be at least as long
// as x. Implemented in assembly.
func dot3SIMD(x, y0, y1, y2 []float64) (d0, d1, d2 float64)

// axpyTileSIMD adds (alpha·A(r,k))·b[k*ld+j] to c[r*ld+j] for the four rows
// r < 4, the columns j < n and k < kn ascending, where A(r,k) = a[r*rs+k*ks]
// and a term with A(r,k) == 0 is skipped. n must be a positive multiple of
// 4 and kn positive; the slices must cover every index this reaches. Each
// element gets axpySIMD's fused multiply-add per term. Implemented in
// assembly.
func axpyTileSIMD(alpha float64, a []float64, rs, ks, kn int, b, c []float64, ld, n int)
