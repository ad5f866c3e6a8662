package tensor_test

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/nn"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
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
		{"Softmax", models.NewSoftmax(13, 5), 13, 0, 1e-6, 1e-5},
		{"PaperCNN", models.NewPaperCNN(3, 16), 784, 40, 1e-5, 1e-3},
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

// TestLossGradOnScalarKernels repeats the models' LossGrad bit-identity
// check on the scalar fallback: LossGrad returns Loss's value and Grad's
// gradient bit for bit whichever kernels the GEMMs run, for the softmax
// with and without L2, the thin paper CNN and the MLP, at shard sizes
// around the 32-row chunk.
func TestLossGradOnScalarKernels(t *testing.T) {
	tensor.WithScalarKernels(t)
	cases := []struct {
		name string
		m    models.Model
		dim  int
	}{
		{"Softmax", models.NewSoftmax(13, 5), 13},
		{"thin CNN", models.NewPaperCNN(5, 16), 784},
		{"MLP", models.NewNNModel(nn.MustNetwork(nn.NewDense(9, 11), testx.NewReLU(11), nn.NewDense(11, 5))), 9},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 31, 32, 33, 257} {
			rng := randx.New(int64(n))
			ds := data.New(tc.dim, 5, n)
			x := make([]float64, tc.dim)
			for i := 0; i < n; i++ {
				randx.NormalVec(rng, x, 0, 1)
				ds.AppendClass(x, rng.Intn(5))
			}
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(rng, w, 0, 0.3)
			want := make([]float64, len(w))
			tc.m.Grad(want, w, ds, nil)
			wantLoss := tc.m.Loss(w, ds, nil)
			got := make([]float64, len(w))
			loss := tc.m.LossGrad(got, w, ds)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Fatalf("%s n=%d: LossGrad loss %v, Loss %v", tc.name, n, loss, wantLoss)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: grad[%d] = %v, Grad %v", tc.name, n, i, got[i], want[i])
				}
			}
		}
	}
}
