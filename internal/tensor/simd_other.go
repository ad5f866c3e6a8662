//go:build !amd64

package tensor

// simdEnabled is false off amd64; the scalar kernels are used everywhere.
const simdEnabled = false

func axpySIMD(s float64, x, y []float64) { panic("tensor: SIMD kernel unavailable") }

func axpyTileSIMD(a []float64, rs, ks, kn int, b, c []float64, ld, n, rows int) {
	panic("tensor: SIMD kernel unavailable")
}

func expSIMD(x []float64) int { panic("tensor: SIMD kernel unavailable") }

func dotRowsSIMD(a, b, c []float64, k, ldc, m, nb int, acc bool) {
	panic("tensor: SIMD kernel unavailable")
}

func headMaxShiftSIMD(z []float64, b, c int, mx []float64) {
	panic("tensor: SIMD kernel unavailable")
}

func headSumsSIMD(z []float64, b, c int, s []float64) { panic("tensor: SIMD kernel unavailable") }

func headGradSIMD(z []float64, b, c int, s []float64, y []int, inv float64, db []float64) {
	panic("tensor: SIMD kernel unavailable")
}

func headArgMaxSIMD(pred []int, z []float64, b, c int) { panic("tensor: SIMD kernel unavailable") }

func transposeSIMD(dst, src []float64, n, m int, bias []float64) {
	panic("tensor: SIMD kernel unavailable")
}
