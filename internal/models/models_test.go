package models

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/nn"
	"fedproxvr/internal/randx"
	"fedproxvr/internal/testx"
)

// newMLP builds a one-hidden-layer ReLU perceptron classifier, the NN model
// the tests train besides the CNN.
func newMLP(in, hidden, classes int) *NNModel {
	return NewNNModel(nn.MustNetwork(nn.NewDense(in, hidden), testx.NewReLU(hidden), nn.NewDense(hidden, classes)))
}

// checkModelGradient compares Grad against central finite differences of
// Loss over a fixed batch.
func checkModelGradient(t *testing.T, m Model, ds *data.Dataset, idx []int, seed int64, tol float64) {
	t.Helper()
	rng := randx.New(seed)
	w := make([]float64, m.Dim())
	randx.NormalVec(rng, w, 0, 0.3)
	grad := make([]float64, m.Dim())
	m.Grad(grad, w, ds, idx)
	const h = 1e-6
	for i := range w {
		orig := w[i]
		w[i] = orig + h
		fp := m.Loss(w, ds, idx)
		w[i] = orig - h
		fm := m.Loss(w, ds, idx)
		w[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(grad[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("grad[%d]: analytic %v, numeric %v", i, grad[i], want)
		}
	}
}

func classificationDataset(n, d, classes int, seed int64) *data.Dataset {
	rng := randx.New(seed)
	ds := data.New(d, classes, n)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendClass(x, rng.Intn(classes))
	}
	return ds
}

func TestSoftmaxGradient(t *testing.T) {
	ds := classificationDataset(15, 6, 3, 6)
	checkModelGradient(t, NewSoftmax(6, 3), ds, nil, 7, 1e-5)
	checkModelGradient(t, NewSoftmax(6, 3), ds, []int{1, 4, 9, 14}, 8, 1e-5)
}

func TestSoftmaxLossAtZeroIsLogC(t *testing.T) {
	ds := classificationDataset(10, 4, 5, 9)
	m := NewSoftmax(4, 5)
	w := make([]float64, m.Dim())
	want := math.Log(5)
	if got := m.Loss(w, ds, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("loss at w=0 is %v, want log(5)=%v", got, want)
	}
}

func TestSoftmaxLearnsSeparableData(t *testing.T) {
	// Three well-separated Gaussian blobs; plain GD should exceed 95%.
	rng := randx.New(10)
	ds := data.New(2, 3, 300)
	centers := [][2]float64{{3, 0}, {-3, 3}, {0, -4}}
	x := make([]float64, 2)
	for i := 0; i < 300; i++ {
		c := i % 3
		x[0] = centers[c][0] + 0.5*rng.NormFloat64()
		x[1] = centers[c][1] + 0.5*rng.NormFloat64()
		ds.AppendClass(x, c)
	}
	m := NewSoftmax(2, 3)
	w := make([]float64, m.Dim())
	g := make([]float64, m.Dim())
	for it := 0; it < 300; it++ {
		m.Grad(g, w, ds, nil)
		for j := range w {
			w[j] -= 0.5 * g[j]
		}
	}
	if acc := float64(CountCorrect(m, make([]int, ds.N()), w, ds, 0, ds.N())) / float64(ds.N()); acc < 0.95 {
		t.Fatalf("GD on separable blobs reached only %.3f accuracy", acc)
	}
}

func TestMLPGradient(t *testing.T) {
	ds := classificationDataset(8, 5, 3, 11)
	checkModelGradient(t, newMLP(5, 7, 3), ds, nil, 12, 1e-4)
	checkModelGradient(t, newMLP(5, 7, 3), ds, []int{0, 2, 5}, 13, 1e-4)
}

func TestCNNGradientThin(t *testing.T) {
	// Thin CNN (width divisor 16 → 2/4 channels) keeps the test fast while
	// covering conv, pool and dense backprop through the Model interface.
	img := data.New(784, 3, 4)
	rng := randx.New(14)
	x := make([]float64, 784)
	for i := 0; i < 4; i++ {
		for j := range x {
			x[j] = rng.Float64()
		}
		img.AppendClass(x, i%3)
	}
	m := NewPaperCNN(3, 16)
	// Full finite differences over ~8k params is too slow; spot-check a
	// random subset of coordinates.
	w := make([]float64, m.Dim())
	m.InitParams(rng, w)
	grad := make([]float64, m.Dim())
	m.Grad(grad, w, img, nil)
	const h = 1e-5
	for k := 0; k < 60; k++ {
		i := rng.Intn(m.Dim())
		orig := w[i]
		w[i] = orig + h
		fp := m.Loss(w, img, nil)
		w[i] = orig - h
		fm := m.Loss(w, img, nil)
		w[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("CNN grad[%d]: analytic %v, numeric %v", i, grad[i], want)
		}
	}
}

// TestLossGradMatchesLossAndGrad pins LossGrad to Loss plus Grad bit for
// bit, on the softmax with and without L2, the thin CNN and the MLP, at
// shard sizes around the chunk boundary and on an empty shard, which the
// evaluation's gap reaches through LossGrad like any other. The engine's
// evaluation hands LossGrad's gradient to the next round's solve in place
// of Grad's, folds it into ‖∇F̄‖² and records its loss in place of Loss's,
// so any other answer would move a result.
func TestLossGradMatchesLossAndGrad(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		dim  int
	}{
		{"Softmax", NewSoftmax(13, 5), 13},
		{"thin CNN", NewPaperCNN(5, 16), 784},
		{"MLP", newMLP(9, 11, 5), 9},
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, 31, 32, 33, 257} { // 0: an empty shard
			ds := classificationDataset(n, tc.dim, 5, int64(n))
			w := make([]float64, tc.m.Dim())
			randx.NormalVec(randx.New(int64(n)+1), w, 0, 0.3)
			want := make([]float64, len(w))
			tc.m.Grad(want, w, ds, nil)
			wantLoss := tc.m.Loss(w, ds, nil)
			got := make([]float64, len(w))
			for i := range got {
				got[i] = math.NaN() // LossGrad must overwrite, not accumulate
			}
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

func TestCloneIndependence(t *testing.T) {
	ds := classificationDataset(10, 4, 3, 15)
	m := NewSoftmax(4, 3)
	c := m.Clone().(*Softmax)
	if c == m {
		t.Fatal("Softmax Clone must not return the receiver (it has scratch)")
	}
	w := make([]float64, m.Dim())
	if m.Loss(w, ds, nil) != c.Loss(w, ds, nil) {
		t.Fatal("clone computes different loss")
	}
	nm := newMLP(4, 5, 3)
	nc := nm.Clone().(*NNModel)
	if nc.Net != nm.Net {
		t.Fatal("NNModel clones should share the network structure")
	}
	if nm.Loss(w2(nm), ds, nil) != nc.Loss(w2(nm), ds, nil) {
		t.Fatal("NN clone computes different loss")
	}
}

func w2(m Model) []float64 { return make([]float64, m.Dim()) }

func TestEmptyBatchIsZero(t *testing.T) {
	ds := classificationDataset(5, 3, 2, 16)
	m := NewSoftmax(3, 2)
	w := make([]float64, m.Dim())
	if m.Loss(w, ds, []int{}) != 0 {
		t.Fatal("empty batch loss should be 0")
	}
	g := make([]float64, m.Dim())
	g[0] = 99
	m.Grad(g, w, ds, []int{})
	if g[0] != 0 {
		t.Fatal("empty batch grad should zero the buffer")
	}
}

func BenchmarkSoftmaxGrad784x10(b *testing.B) {
	ds := classificationDataset(64, 784, 10, 1)
	m := NewSoftmax(784, 10)
	w := make([]float64, m.Dim())
	g := make([]float64, m.Dim())
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(g, w, ds, idx)
	}
}

// BenchmarkSoftmaxGradB32 is one convex inner-loop step at the benchmark's
// shape: a 32-row minibatch of 60 features over 10 classes.
func BenchmarkSoftmaxGradB32(b *testing.B) {
	ds := classificationDataset(256, 60, 10, 1)
	m := NewSoftmax(60, 10)
	w := make([]float64, m.Dim())
	randx.NormalVec(randx.New(2), w, 0, 0.1)
	g := make([]float64, m.Dim())
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = (i * 7) % ds.N()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(g, w, ds, idx)
	}
}

// BenchmarkSoftmaxXent32x10 is the softmax cross-entropy head of one
// convex inner-loop step: softmaxHead's gradient pass, bias gradient
// included, over a 32-sample chunk of 10 class-major logits, each
// iteration first restoring the logits it overwrites.
func BenchmarkSoftmaxXent32x10(b *testing.B) {
	const rows, classes = 32, 10
	ds := classificationDataset(rows, 1, classes, 1)
	logits := make([]float64, rows*classes)
	randx.NormalVec(randx.New(2), logits, 0, 3)
	z := make([]float64, len(logits))
	db := make([]float64, classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(z, logits)
		softmaxHead(0, z, rows, classes, ds, nil, 0, false, 1.0/rows, db)
	}
}

// BenchmarkSoftmaxLossGradShard is one full-shard LossGrad of the convex
// model at convex100's mean shard: 470 samples of 60 features over 10
// classes, the anchor gradient and the evaluation pass of a round.
func BenchmarkSoftmaxLossGradShard(b *testing.B) {
	ds := classificationDataset(470, 60, 10, 1)
	m := NewSoftmax(60, 10)
	w := make([]float64, m.Dim())
	randx.NormalVec(randx.New(2), w, 0, 0.1)
	g := make([]float64, m.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LossGrad(g, w, ds)
	}
}

// BenchmarkSoftmaxPredict32x10 is the convex model's prediction over one
// 32-sample chunk of 60 features and 10 classes: the logits GEMM and the
// class-major argmax.
func BenchmarkSoftmaxPredict32x10(b *testing.B) {
	ds := classificationDataset(32, 60, 10, 1)
	m := NewSoftmax(60, 10)
	w := make([]float64, m.Dim())
	randx.NormalVec(randx.New(2), w, 0, 0.1)
	pred := make([]int, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(pred, w, ds, 0, 32)
	}
}

func BenchmarkCNNGradSingleSample(b *testing.B) {
	ds := classificationDataset(4, 784, 10, 2)
	m := NewPaperCNN(10, 8)
	w := make([]float64, m.Dim())
	m.InitParams(randx.New(3), w)
	g := make([]float64, m.Dim())
	idx := []int{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(g, w, ds, idx)
	}
}
