package optim

import (
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/models"
	"fedproxvr/internal/randx"
)

// benchSolveSoftmax times one SARAH solve of the softmax model at the
// benchmark workloads' settings (β = 5, μ = 0.1, so η = 1/(5L)) on an
// n-sample shard of standard normal features, with line 4's gradient
// handed over when handOver is set. Every iteration solves from the same
// anchor with the same draws.
func benchSolveSoftmax(b *testing.B, d, n, batch, tau int, smoothL float64, handOver bool) {
	const classes = 10
	m := models.NewSoftmax(d, classes)
	rng := randx.New(1)
	ds := data.New(d, classes, n)
	x := make([]float64, d)
	for s := 0; s < n; s++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, rng.Intn(classes))
	}
	anchor := make([]float64, m.Dim())
	randx.NormalVec(rng, anchor, 0, 0.1)
	var v0 []float64
	if handOver {
		v0 = make([]float64, m.Dim())
		m.Grad(v0, anchor, ds, nil)
	}
	out := make([]float64, m.Dim())
	cfg := LocalConfig{Estimator: SARAH, Eta: 1 / (5 * smoothL), Tau: tau, Batch: batch, Mu: 0.1}
	s, sc := NewSolver(m), new(Scratch)
	solveRNG := randx.New(2)
	s.Solve(sc, ds, anchor, out, cfg, solveRNG, v0) // builds the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveRNG.Seed(2)
		s.Solve(sc, ds, anchor, out, cfg, solveRNG, v0)
	}
}

// BenchmarkSolveSARAHSoftmax7850 is one tcp8_f64 worker's solve: the
// 784×10 softmax (7850 parameters) on a 41-sample shard, B = 8, τ = 2,
// line 4's gradient computed.
func BenchmarkSolveSARAHSoftmax7850(b *testing.B) {
	benchSolveSoftmax(b, 784, 41, 8, 2, 74, false)
}

// BenchmarkSolveSARAHSoftmax610 is one convex100 solve: the 60×10 softmax
// (610 parameters) on a 470-sample shard, B = 32, τ = 20, line 4's
// gradient handed over.
func BenchmarkSolveSARAHSoftmax610(b *testing.B) {
	benchSolveSoftmax(b, 60, 470, 32, 20, 60, true)
}
