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

// axpyTileSIMD adds (alpha·A(r,k))·b[k*ld+j] to c[r*ld+j] for the four rows
// r < 4, the columns j < n and k < kn ascending, where A(r,k) = a[r*rs+k*ks]
// and a term with A(r,k) == 0 is skipped. n must be a positive multiple of
// 4 and kn positive; the slices must cover every index this reaches. Each
// element gets axpySIMD's fused multiply-add per term. Implemented in
// assembly.
func axpyTileSIMD(alpha float64, a []float64, rs, ks, kn int, b, c []float64, ld, n int)

// expSIMD overwrites x, four elements at a time, with math.Exp's FMA path
// op for op. It stops before the first group of four holding an element
// outside [−708, 709.78] (NaN included) or before a tail of fewer than
// four, and returns how many elements it wrote. Implemented in assembly.
func expSIMD(x []float64) int

// dot3RowsSIMD computes, for each of the m rows of A at a (row r is
// a[r*k:(r+1)*k]), its three dots with the B rows b[:k], b[k:2k] and
// b[2k:3k], and writes them to c[r*ldc : r*ldc+3]: as they are, or added
// to c's values (c + d) when acc is set. Each dot keeps dotSIMD's
// accumulator layout and therefore its bits. The slices must cover every
// index this reaches. Implemented in assembly.
//
//go:noescape
func dot3RowsSIMD(a, b, c []float64, k, ldc, m int, acc bool)
