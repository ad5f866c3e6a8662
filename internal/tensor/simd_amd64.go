//go:build amd64

package tensor

// simdEnabled reports whether the AVX2+FMA kernels are usable on this CPU.
// Checked once at init; the scalar kernels remain the reference semantics
// on machines without AVX2.
var simdEnabled = x86HasAVX2FMA()

// x86HasAVX2FMA reports CPU and OS support for AVX2 and FMA3
// (CPUID feature bits plus XCR0 state enablement). Implemented in assembly.
func x86HasAVX2FMA() bool

// axpySIMD computes y[i] += s*x[i] with 2×4-wide FMA. len(y) must be
// ≥ len(x). Implemented in assembly.
func axpySIMD(s float64, x, y []float64)

// axpyTileSIMD adds A(r,k)·b[k*ld+j] to c[r*ld+j] for the rows r < rows
// (1 to 4), the columns j < n and k < kn ascending, where
// A(r,k) = a[r*rs+k*ks] and a term with A(r,k) == 0 is skipped. n must be
// a positive multiple of 4 and kn positive; the slices must cover every
// index this reaches. Each element gets axpySIMD's fused multiply-add per
// term, with s = A(r,k) (axpyRow's alpha·A(r,k) at alpha = 1, which is
// A(r,k) to the bit). Implemented in assembly.
func axpyTileSIMD(a []float64, rs, ks, kn int, b, c []float64, ld, n, rows int)

// expSIMD overwrites x, four elements at a time, with math.Exp's FMA path
// op for op. It stops before the first group of four holding an element
// outside [−708, 709.78] (NaN included) or before a tail of fewer than
// four, and returns how many elements it wrote. Implemented in assembly.
func expSIMD(x []float64) int

// dotRowsSIMD computes, for each of the m rows of A at a (row r is
// a[r*k:(r+1)*k]), its dots with the 1 ≤ nb ≤ 3 B rows b[:k], b[k:2k], …, and
// writes dot j of row r to c[r*ldc+j]: as it is, or added to c's value
// (c + d) when acc is set. Every dot has four 4-wide FMA accumulators,
// one fixed combine order and an in-order scalar FMA tail, so its bits
// depend only on its two rows. The slices must cover every index this
// reaches. Implemented in assembly.
//
//go:noescape
func dotRowsSIMD(a, b, c []float64, k, ldc, m, nb int, acc bool)
