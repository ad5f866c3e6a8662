package models

import (
	"math"
	"runtime"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

// classDataset builds a small random classification dataset.
func classDataset(dim, classes, n int, seed int64) *data.Dataset {
	rng := randx.New(seed)
	ds := data.New(dim, classes, n)
	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, i%classes)
	}
	return ds
}

// gradPerSample is the one-sample-at-a-time reference for NNModel.Grad:
// every selected sample runs its own batch-of-one forward and backward, so
// no GEMM reduces over more than one sample. Same semantics as Grad.
func gradPerSample(m *NNModel, grad, w []float64, ds *data.Dataset, idx []int) {
	mathx.Zero(grad)
	n := batchSize(ds, idx)
	if n == 0 {
		return
	}
	m.workspace()
	inv := 1 / float64(n)
	dOut := m.dOut[:m.Net.OutSize()]
	for k := 0; k < n; k++ {
		i := k
		if idx != nil {
			i = idx[k]
		}
		copy(dOut, m.Net.ForwardBatch(w, ds.Sample(i), 1, m.ws))
		testx.SoftmaxInPlace(dOut)
		dOut[ds.Y[i]] -= 1
		mathx.Scal(inv, dOut)
		m.Net.BackwardBatch(w, dOut, 1, m.ws, grad)
	}
}

// predictRow is the one-row reference for PredictBatch: the arg-max class
// of a single feature row, from a dot product per class (Softmax) or a
// batch-of-one forward (NNModel).
func predictRow(c Classifier, w, x []float64) int {
	switch m := c.(type) {
	case *Softmax:
		nw := m.Classes * m.Features
		best, bestV := 0, math.Inf(-1)
		for k := 0; k < m.Classes; k++ {
			if v := w[nw+k] + mathx.Dot(w[k*m.Features:(k+1)*m.Features], x); v > bestV {
				best, bestV = k, v
			}
		}
		return best
	case *NNModel:
		m.workspace()
		return mathx.ArgMax(m.Net.ForwardBatch(w, x, 1, m.ws))
	}
	panic("predictRow: unknown classifier")
}

// TestNNModelGradMatchesPerSample pins the batched whole-minibatch gradient
// to the per-sample reference path within 1e-9, for the MLP and the (thin)
// paper CNN, on both the full-dataset and the gathered-index paths.
func TestNNModelGradMatchesPerSample(t *testing.T) {
	cases := []struct {
		name string
		m    *NNModel
		dim  int
	}{
		{"MLP", newMLP(20, 16, 4), 20},
		{"PaperCNN", NewPaperCNN(4, 16), 784},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := classDataset(tc.dim, 4, 70, 31)
			rng := randx.New(32)
			w := make([]float64, tc.m.Dim())
			tc.m.InitParams(rng, w)
			batched := make([]float64, tc.m.Dim())
			ref := make([]float64, tc.m.Dim())
			for _, idx := range [][]int{nil, {0}, {5, 3, 5, 60}, {1, 2, 3, 4, 5, 6, 7}} {
				tc.m.Grad(batched, w, ds, idx)
				gradPerSample(tc.m, ref, w, ds, idx)
				for i := range batched {
					if d := math.Abs(batched[i] - ref[i]); d > 1e-9*(1+math.Abs(ref[i])) {
						t.Fatalf("idx=%v grad[%d]: batched %v, per-sample %v", idx, i, batched[i], ref[i])
					}
				}
			}
		})
	}
}

// TestNNModelGradBitDeterministic asserts repeated batched gradients, and
// gradients under different GOMAXPROCS values, are bit-identical.
func TestNNModelGradBitDeterministic(t *testing.T) {
	m := newMLP(50, 32, 5)
	ds := classDataset(50, 5, 96, 33)
	rng := randx.New(34)
	w := make([]float64, m.Dim())
	m.InitParams(rng, w)
	run := func() []float64 {
		g := make([]float64, m.Dim())
		m.Grad(g, w, ds, nil)
		return g
	}
	ref := run()
	again := run()
	for i := range ref {
		if ref[i] != again[i] {
			t.Fatalf("rerun differs at %d", i)
		}
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, old} {
		runtime.GOMAXPROCS(procs)
		got := run()
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d changes grad[%d]", procs, i)
			}
		}
	}
}

// TestModelGradZeroAllocSteadyState asserts the batched Grad hot path of
// every model allocates nothing once scratch is warm.
func TestModelGradZeroAllocSteadyState(t *testing.T) {
	ds := classDataset(30, 3, 80, 35)
	idx := []int{4, 9, 17, 2, 55, 31, 8, 70}
	models := []struct {
		name string
		m    Model
		ds   *data.Dataset
	}{
		{"Softmax", NewSoftmax(30, 3), ds},
		{"MLP", newMLP(30, 16, 3), ds},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			rng := randx.New(37)
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(rng, w, 0, 0.1)
			g := make([]float64, tc.m.Dim())
			tc.m.Grad(g, w, tc.ds, idx) // warm scratch and helper pool
			tc.m.Grad(g, w, tc.ds, nil)
			allocs := testing.AllocsPerRun(10, func() {
				tc.m.Grad(g, w, tc.ds, idx)
				tc.m.Grad(g, w, tc.ds, nil)
			})
			if allocs != 0 {
				t.Fatalf("%s Grad allocates %v per call pair, want 0", tc.name, allocs)
			}
		})
	}
}

// TestPredictBatchMatchesPredict pins batched prediction to the one-row
// reference predictRow on every classifier: the same labels row for row,
// hence the same accuracy count, whether the dataset is predicted whole, in
// PredictBlock blocks (what engine.Evaluator dispatches) or in ragged ones.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cases := []struct {
		name    string
		m       Classifier
		dim     int
		classes int
	}{
		{"Softmax", NewSoftmax(30, 5), 30, 5},
		{"MLP", newMLP(20, 16, 4), 20, 4},
		{"PaperCNN", NewPaperCNN(4, 16), 784, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 2*PredictBlock + 45
			ds := classDataset(tc.dim, tc.classes, n, 51)
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(randx.New(52), w, 0, 0.3)
			want := make([]int, n)
			correct := 0
			for i := range want {
				want[i] = predictRow(tc.m, w, ds.Sample(i))
				if want[i] == ds.Y[i] {
					correct++
				}
			}
			got := make([]int, n)
			for _, block := range []int{n, PredictBlock, 7, 100} {
				count := 0
				for lo := 0; lo < n; lo += block {
					hi := min(lo+block, n)
					count += CountCorrect(tc.m, got[lo:], w, ds, lo, hi)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("block %d: row %d predicted %d, predictRow says %d", block, i, got[i], want[i])
					}
				}
				if count != correct {
					t.Fatalf("block %d: %d correct, per-sample count %d", block, count, correct)
				}
			}
			pred := make([]int, PredictBlock)
			if a := testing.AllocsPerRun(5, func() { CountCorrect(tc.m, pred, w, ds, 0, PredictBlock) }); a != 0 {
				t.Fatalf("CountCorrect allocates %v per block", a)
			}
		})
	}
}

// BenchmarkCNNThinGradB8 measures one 8-sample minibatch gradient of the
// paper CNN at width divisor 8: the cnn10 workload's inner-loop step.
func BenchmarkCNNThinGradB8(b *testing.B) {
	m := NewPaperCNN(10, 8)
	ds := classDataset(784, 10, 64, 43)
	w := make([]float64, m.Dim())
	m.InitParams(randx.New(44), w)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = (i * 7) % ds.N()
	}
	g := make([]float64, m.Dim())
	m.Grad(g, w, ds, idx) // build the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(g, w, ds, idx)
	}
}
