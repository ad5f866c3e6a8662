//go:build !amd64

package tensor

// simdEnabled is false off amd64; the scalar kernels are used everywhere.
const simdEnabled = false

func dotSIMD(x, y []float64) float64 { panic("tensor: SIMD kernel unavailable") }

func axpySIMD(s float64, x, y []float64) { panic("tensor: SIMD kernel unavailable") }

func dot3SIMD(x, y0, y1, y2 []float64) (d0, d1, d2 float64) {
	panic("tensor: SIMD kernel unavailable")
}

func axpyTileSIMD(alpha float64, a []float64, rs, ks, kn int, b, c []float64, ld, n int) {
	panic("tensor: SIMD kernel unavailable")
}
