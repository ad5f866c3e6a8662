package optim

import (
	"math/rand"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/nn"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

// nnInnerSolveFixture builds one device's inner-solve workload on the MLP:
// a 256-sample MNIST-shaped shard and a solver bound to the model. The
// batch size of 32 is the smallest size named by the perf budget.
func nnInnerSolveFixture(b *testing.B) (Solver, *data.Dataset, []float64, []float64) {
	b.Helper()
	m := models.NewNNModel(nn.MustNetwork(nn.NewDense(784, 128), testx.NewReLU(128), nn.NewDense(128, 10)))
	rng := randx.New(71)
	ds := data.New(784, 10, 256)
	x := make([]float64, 784)
	for i := 0; i < 256; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, i%10)
	}
	anchor := make([]float64, m.Dim())
	m.InitParams(rng, anchor)
	out := make([]float64, m.Dim())
	return NewSolver(m), ds, anchor, out
}

// benchNNInnerSolve measures one full device inner solve on the NN model —
// the anchor gradient over all 256 samples plus τ=8 proximal steps with
// 32-sample minibatches — for the given variance-reduced estimator.
func benchNNInnerSolve(b *testing.B, est Estimator) {
	s, ds, anchor, out := nnInnerSolveFixture(b)
	sc := new(Scratch)
	cfg := LocalConfig{Estimator: est, Eta: 0.01, Tau: 8, Batch: 32, Mu: 0.1}
	rng := rand.New(rand.NewSource(7))
	s.Solve(sc, ds, anchor, out, cfg, rng, nil) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(sc, ds, anchor, out, cfg, rng, nil)
	}
}

func BenchmarkNNInnerSolveSVRG(b *testing.B)  { benchNNInnerSolve(b, SVRG) }
func BenchmarkNNInnerSolveSARAH(b *testing.B) { benchNNInnerSolve(b, SARAH) }
