package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
)

// batchFixture builds a network exercising every layer type.
func batchFixture() *Network {
	shape := tensor.ConvShape{InC: 2, InH: 8, InW: 8, K: 3}
	conv := NewConv2D(shape, 4)
	pool := NewReLUMaxPool(conv)
	return MustNetwork(
		conv, pool,
		NewDense(pool.OutSize(), 12), testx.NewReLU(12), NewDense(12, 5),
	)
}

func randomBatch(rng *rand.Rand, net *Network, b int) (x, dOut []float64) {
	x = make([]float64, b*net.InSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dOut = make([]float64, b*net.OutSize())
	for i := range dOut {
		dOut[i] = rng.NormFloat64()
	}
	return x, dOut
}

// TestBatchedMatchesPerSample drives the same samples through the batched
// path and the batch-of-one reference, comparing outputs and accumulated
// gradients to 1e-9. Covers dense, conv, the fused ReLU + max-pool and
// ReLU.
func TestBatchedMatchesPerSample(t *testing.T) {
	net := batchFixture()
	rng := rand.New(rand.NewSource(11))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	for _, b := range []int{1, 2, 7, 32} {
		x, dOut := randomBatch(rng, net, b)
		in, out := net.InSize(), net.OutSize()

		wsB := net.NewWorkspaceBatch(b)
		gotY := net.ForwardBatch(params, x, b, wsB)
		gradB := make([]float64, net.NumParams())
		net.BackwardBatch(params, dOut, b, wsB, gradB)

		ws1 := net.NewWorkspaceBatch(1)
		grad1 := make([]float64, net.NumParams())
		for s := 0; s < b; s++ {
			y := net.ForwardBatch(params, x[s*in:(s+1)*in], 1, ws1)
			for j := 0; j < out; j++ {
				if d := math.Abs(gotY[s*out+j] - y[j]); d > 1e-9*(1+math.Abs(y[j])) {
					t.Fatalf("b=%d sample %d out %d: batched %v, per-sample %v", b, s, j, gotY[s*out+j], y[j])
				}
			}
			net.BackwardBatch(params, dOut[s*out:(s+1)*out], 1, ws1, grad1)
		}
		for i := range gradB {
			if d := math.Abs(gradB[i] - grad1[i]); d > 1e-9*(1+math.Abs(grad1[i])) {
				t.Fatalf("b=%d grad %d: batched %v, per-sample %v", b, i, gradB[i], grad1[i])
			}
		}
	}
}

// TestBatchedGradBitDeterministic asserts two identical batched passes, and
// passes under different GOMAXPROCS values, produce bit-identical gradients.
func TestBatchedGradBitDeterministic(t *testing.T) {
	net := batchFixture()
	rng := rand.New(rand.NewSource(12))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	const b = 16
	x, dOut := randomBatch(rng, net, b)

	run := func() []float64 {
		ws := net.NewWorkspaceBatch(b)
		grad := make([]float64, net.NumParams())
		net.ForwardBatch(params, x, b, ws)
		net.BackwardBatch(params, dOut, b, ws, grad)
		return grad
	}
	ref := run()
	again := run()
	for i := range ref {
		if ref[i] != again[i] {
			t.Fatalf("same-process rerun differs at %d", i)
		}
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, old} {
		runtime.GOMAXPROCS(procs)
		got := run()
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d changes grad[%d]: %v vs %v", procs, i, got[i], ref[i])
			}
		}
	}
}

// TestBatchedPassZeroAlloc asserts the steady-state batched forward+backward
// performs no allocations (all scratch lives in the workspace).
func TestBatchedPassZeroAlloc(t *testing.T) {
	net := batchFixture()
	rng := rand.New(rand.NewSource(13))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	const b = 16
	x, dOut := randomBatch(rng, net, b)
	ws := net.NewWorkspaceBatch(b)
	grad := make([]float64, net.NumParams())
	net.ForwardBatch(params, x, b, ws) // warm the helper pool
	net.BackwardBatch(params, dOut, b, ws, grad)
	allocs := testing.AllocsPerRun(20, func() {
		net.ForwardBatch(params, x, b, ws)
		net.BackwardBatch(params, dOut, b, ws, grad)
	})
	if allocs != 0 {
		t.Fatalf("batched pass allocates %v per run, want 0", allocs)
	}
}

func benchMLP() *Network {
	return MustNetwork(NewDense(784, 128), testx.NewReLU(128), NewDense(128, 10))
}

// BenchmarkNNBatchForward32 measures one batched forward of the MLP.
func BenchmarkNNBatchForward32(b *testing.B) {
	net := benchMLP()
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, net.NumParams())
	net.InitParams(rng, params)
	const batch = 32
	x := make([]float64, batch*net.InSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ws := net.NewWorkspaceBatch(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(params, x, batch, ws)
	}
}
