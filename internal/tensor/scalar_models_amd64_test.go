package tensor_test

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
)

// TestModelGradientsOnScalarKernels checks the Softmax and the thin paper
// CNN gradients end to end on the scalar fallback: against central finite
// differences of the loss, and within 1e-9 of the AVX2 gradient (the two
// arithmetics round differently — FMA against multiply-then-add — so they
// agree to a tolerance, not bit for bit).
func TestModelGradientsOnScalarKernels(t *testing.T) {
	cases := []struct {
		name   string
		m      models.Model
		dim    int
		coords int     // finite-difference coordinates checked (0 = all)
		h, tol float64 // finite-difference step and tolerance
	}{
		{"Softmax", models.NewSoftmax(13, 5, 0.1), 13, 0, 1e-6, 1e-5},
		{"PaperCNN", models.NewPaperCNN(3, 16, 0), 784, 40, 1e-5, 1e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := randx.New(28)
			ds := data.New(tc.dim, 5, 9)
			x := make([]float64, tc.dim)
			for i := 0; i < 9; i++ {
				for j := range x {
					x[j] = rng.Float64()
				}
				ds.AppendClass(x, i%3)
			}
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(rng, w, 0, 0.3)
			simd := make([]float64, len(w))
			tc.m.Grad(simd, w, ds, nil)

			tensor.WithScalarKernels(t)
			grad := make([]float64, len(w))
			tc.m.Grad(grad, w, ds, nil)
			for i := range grad {
				if math.Abs(grad[i]-simd[i]) > 1e-9*(1+math.Abs(simd[i])) {
					t.Fatalf("grad[%d]: scalar %v, AVX2 %v", i, grad[i], simd[i])
				}
			}
			n := tc.coords
			if n == 0 {
				n = len(w)
			}
			for c := 0; c < n; c++ {
				i := c
				if tc.coords != 0 {
					i = rng.Intn(len(w))
				}
				orig := w[i]
				w[i] = orig + tc.h
				fp := tc.m.Loss(w, ds, nil)
				w[i] = orig - tc.h
				fm := tc.m.Loss(w, ds, nil)
				w[i] = orig
				want := (fp - fm) / (2 * tc.h)
				if math.Abs(grad[i]-want) > tc.tol*(1+math.Abs(want)) {
					t.Fatalf("grad[%d]: analytic %v, numeric %v", i, grad[i], want)
				}
			}
		})
	}
}
