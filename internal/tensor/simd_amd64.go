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
// term, with s = A(r,k) as in axpyRows. With zero, each element starts
// from +0 instead of c's value, which is then never read: the sum a C
// zeroed beforehand would get. Implemented in assembly.
func axpyTileSIMD(a []float64, rs, ks, kn int, b, c []float64, ld, n, rows int, zero bool)

// addRowsSIMD adds src[r*ss+j] to dst[r*ds+j] for the rows r < rows and
// the columns j < n, as dst + src with dst the first operand, so that
// where both are NaNs dst's payload is kept, as Go's dst[j] += src[j]
// keeps it. The slices must cover every index this reaches. Implemented
// in assembly.
//
//go:noescape
func addRowsSIMD(src, dst []float64, rows, n, ss, ds int)

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

// headMaxShiftSIMD is HeadMaxShift on the first b&^3 samples of the
// class-major block z (c rows of b), four at a time. Implemented in
// assembly.
//
//go:noescape
func headMaxShiftSIMD(z []float64, b, c int, mx []float64)

// headSumsSIMD is HeadSums on the first b&^3 samples. Implemented in
// assembly.
//
//go:noescape
func headSumsSIMD(z []float64, b, c int, s []float64)

// headGradSIMD is HeadGrad on the first b&^3 samples; an empty db takes no
// bias gradient. Implemented in assembly.
//
//go:noescape
func headGradSIMD(z []float64, b, c int, s []float64, y []int, inv float64, db []float64)

// headArgMaxSIMD is HeadArgMax on the first b&^3 samples. Implemented in
// assembly.
//
//go:noescape
func headArgMaxSIMD(pred []int, z []float64, b, c int)

// transposeSIMD is TransposeInto on dst's first n&^3 columns (src's first
// n&^3 rows), four src rows at a time; an empty bias adds none.
// Implemented in assembly.
//
//go:noescape
func transposeSIMD(dst, src []float64, n, m int, bias []float64)
