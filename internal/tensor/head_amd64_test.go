package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// headKernelsRun runs the head's steps on a copy of the class-major block
// z (c rows of b) — the max and shift, the sums, the gradient with a bias
// gradient, and on the unshifted logits the argmax — and returns every
// result as one slice, after the transposes of z read as b×c, with bias
// and without.
func headKernelsRun(z []float64, b, c int, y []int, inv float64, bias []float64) []float64 {
	t := make([]float64, 2*b*c)
	TransposeInto(MatOf(c, b, t[:b*c]), MatOf(b, c, z), bias)
	TransposeInto(MatOf(c, b, t[b*c:]), MatOf(b, c, z), nil)
	pred := make([]int, b)
	HeadArgMax(pred, z, b, c)
	w := append([]float64(nil), z...)
	mx, s := make([]float64, b), make([]float64, b)
	db := make([]float64, c)
	for j := range db {
		db[j] = float64(j) - 2.5
	}
	HeadMaxShift(w, b, c, mx)
	out := append(append([]float64(nil), w...), mx...)
	Exp(w)
	HeadSums(w, b, c, s)
	HeadGrad(w, b, c, s, y, inv, db)
	out = append(append(append(append(out, s...), w...), db...), t...)
	for _, p := range pred {
		out = append(out, float64(p))
	}
	return out
}

// TestHeadKernelsMatchGo holds the head's AVX2 kernels and the
// transposing copy to their Go loops bit for bit, at 1 to 37 samples
// (every b % 4, and more than one chunk's 32) over 2, 3, 10 and 11
// classes, on logits salted with ±Inf, NaNs of two payloads and a
// signalling NaN, ±0 and −Inf throughout a sample, and a bias drawn from
// the same specials. The Go loops are what the AVX2 kernels leave to the
// last b % 4 samples, so this also pins the lanes of a group to the
// tail's.
func TestHeadKernelsMatchGo(t *testing.T) {
	if !simdEnabled {
		t.Skip("AVX2+FMA kernels are off on this CPU")
	}
	rng := rand.New(rand.NewSource(43))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000123),
		math.Float64frombits(0x7ff0000000000042), 0, math.Copysign(0, -1)}
	for _, c := range []int{2, 3, 10, 11} {
		for b := 1; b <= 37; b++ {
			z := make([]float64, b*c)
			for i := range z {
				z[i] = rng.NormFloat64() * 40
				if rng.Intn(9) == 0 {
					z[i] = special[rng.Intn(len(special))]
				}
			}
			r := rng.Intn(b)
			for j := 0; j < c; j++ {
				z[j*b+r] = math.Inf(-1)
			}
			y := make([]int, b)
			for i := range y {
				y[i] = rng.Intn(c)
			}
			bias := make([]float64, c)
			for j := range bias {
				bias[j] = special[rng.Intn(len(special))]
			}
			got := headKernelsRun(z, b, c, y, 1/float64(b), bias)
			old := simdEnabled
			simdEnabled = false
			want := headKernelsRun(z, b, c, y, 1/float64(b), bias)
			simdEnabled = old
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: result %d = %v (%#x), Go lanes %v (%#x)", fmt.Sprintf("b=%d c=%d", b, c), i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
