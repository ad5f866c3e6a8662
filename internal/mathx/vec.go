// Package mathx provides the scalar and dense-vector kernels used throughout
// the FedProxVR reproduction: BLAS-level-1 style operations, numerically
// stable reductions, and small helpers shared by the tensor, model and
// optimizer packages.
//
// All functions operate on []float64 and follow BLAS conventions: dst
// aliasing src is permitted for element-wise operations, lengths must match
// (mismatches panic, since they indicate a programming error rather than a
// runtime condition).
package mathx

import (
	"math"

	"fedproxvr/internal/tensor"
)

// Dot returns the inner product <x, y>. Panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place, each product a·x[i] rounded before
// its add (tensor.Axpy, four lanes at a time with AVX2). Panics if lengths
// differ.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mathx: Axpy length mismatch")
	}
	if a == 0 {
		return
	}
	tensor.Axpy(a, x, y)
}

// Scal scales x by a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Sub stores x - y into dst. dst may alias x or y.
func Sub(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mathx: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Nrm2Sq returns the squared Euclidean norm ‖x‖².
func Nrm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// Nrm2 returns the Euclidean norm ‖x‖.
func Nrm2(x []float64) float64 { return math.Sqrt(Nrm2Sq(x)) }

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// ArgMax returns the index of the maximum element (first on ties).
// Panics on empty input.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}
