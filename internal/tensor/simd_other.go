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
