package models

import (
	"math"
	"testing"

	"fedproxvr/internal/data"
	"fedproxvr/internal/randx"
)

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

func regressionDataset(n, d int, seed int64) *data.Dataset {
	rng := randx.New(seed)
	ds := data.New(d, 0, n)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		randx.NormalVec(rng, x, 0, 1)
		ds.AppendReg(x, rng.NormFloat64())
	}
	return ds
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

func TestLinearRegressionGradient(t *testing.T) {
	ds := regressionDataset(20, 5, 1)
	checkModelGradient(t, NewLinearRegression(5, false, 0), ds, nil, 2, 1e-5)
	checkModelGradient(t, NewLinearRegression(5, true, 0.1), ds, []int{0, 3, 7}, 3, 1e-5)
}

func TestLinearRegressionKnownValue(t *testing.T) {
	ds := data.New(2, 0, 1)
	ds.AppendReg([]float64{1, 2}, 3)
	m := NewLinearRegression(2, false, 0)
	w := []float64{1, 1} // prediction 3, residual 0
	if m.Loss(w, ds, nil) != 0 {
		t.Fatal("perfect fit should have zero loss")
	}
	w = []float64{0, 0} // residual -3 → loss 4.5
	if m.Loss(w, ds, nil) != 4.5 {
		t.Fatalf("loss = %v, want 4.5", m.Loss(w, ds, nil))
	}
	g := make([]float64, 2)
	m.Grad(g, w, ds, nil)
	if g[0] != -3 || g[1] != -6 {
		t.Fatalf("grad = %v, want [-3 -6]", g)
	}
}

func TestSVMGradientSquaredHinge(t *testing.T) {
	ds := classificationDataset(20, 4, 2, 4)
	checkModelGradient(t, NewSVM(4, true, 0.05), ds, nil, 5, 1e-5)
}

func TestSVMHingeLossValues(t *testing.T) {
	ds := data.New(2, 2, 2)
	ds.AppendClass([]float64{1, 0}, 1) // y=+1
	ds.AppendClass([]float64{0, 1}, 0) // y=-1
	m := NewSVM(2, false, 0)
	w := []float64{2, -2} // margins: 1-2= -1 (clipped 0), 1-2 = -1 → 0
	if m.Loss(w, ds, nil) != 0 {
		t.Fatalf("separating w should have 0 hinge loss, got %v", m.Loss(w, ds, nil))
	}
	w = []float64{0, 0} // both margins 1 → mean 1
	if m.Loss(w, ds, nil) != 1 {
		t.Fatalf("loss = %v, want 1", m.Loss(w, ds, nil))
	}
	if m.Predict(w, []float64{1, 0}) != 1 {
		t.Fatal("Predict tie should be class 1")
	}
}

func TestSoftmaxGradient(t *testing.T) {
	ds := classificationDataset(15, 6, 3, 6)
	checkModelGradient(t, NewSoftmax(6, 3, 0), ds, nil, 7, 1e-5)
	checkModelGradient(t, NewSoftmax(6, 3, 0.2), ds, []int{1, 4, 9, 14}, 8, 1e-5)
}

func TestSoftmaxLossAtZeroIsLogC(t *testing.T) {
	ds := classificationDataset(10, 4, 5, 9)
	m := NewSoftmax(4, 5, 0)
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
	m := NewSoftmax(2, 3, 0)
	w := make([]float64, m.Dim())
	g := make([]float64, m.Dim())
	for it := 0; it < 300; it++ {
		m.Grad(g, w, ds, nil)
		for j := range w {
			w[j] -= 0.5 * g[j]
		}
	}
	if acc := Accuracy(m, w, ds); acc < 0.95 {
		t.Fatalf("GD on separable blobs reached only %.3f accuracy", acc)
	}
}

func TestMLPGradient(t *testing.T) {
	ds := classificationDataset(8, 5, 3, 11)
	checkModelGradient(t, NewMLP(5, 7, 3, 0), ds, nil, 12, 1e-4)
	checkModelGradient(t, NewMLP(5, 7, 3, 0.1), ds, []int{0, 2, 5}, 13, 1e-4)
}

func TestCNNGradientThin(t *testing.T) {
	// Thin CNN (width divisor 16 → 2/4 channels) keeps the test fast while
	// covering conv, pool and dense backprop through the Model interface.
	img := data.New(784, 3, 4)
	rng := randx.New(14)
	x := make([]float64, 784)
	for i := 0; i < 4; i++ {
		randx.UniformVec(rng, x, 0, 1)
		img.AppendClass(x, i%3)
	}
	m := NewPaperCNN(3, 16, 0)
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

func TestCloneIndependence(t *testing.T) {
	ds := classificationDataset(10, 4, 3, 15)
	m := NewSoftmax(4, 3, 0)
	c := m.Clone().(*Softmax)
	if c == m {
		t.Fatal("Softmax Clone must not return the receiver (it has scratch)")
	}
	w := make([]float64, m.Dim())
	if m.Loss(w, ds, nil) != c.Loss(w, ds, nil) {
		t.Fatal("clone computes different loss")
	}
	nm := NewMLP(4, 5, 3, 0)
	nc := nm.Clone().(*NNModel)
	if nc.Net != nm.Net {
		t.Fatal("NNModel clones should share the network structure")
	}
	if nm.Loss(w2(nm), ds, nil) != nc.Loss(w2(nm), ds, nil) {
		t.Fatal("NN clone computes different loss")
	}
}

func w2(m Model) []float64 { return make([]float64, m.Dim()) }

func TestAccuracyEmptyDataset(t *testing.T) {
	m := NewSoftmax(2, 2, 0)
	if Accuracy(m, make([]float64, m.Dim()), data.New(2, 2, 0)) != 0 {
		t.Fatal("empty dataset accuracy should be 0")
	}
}

func TestEmptyBatchIsZero(t *testing.T) {
	ds := classificationDataset(5, 3, 2, 16)
	m := NewSoftmax(3, 2, 0)
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
	m := NewSoftmax(784, 10, 0)
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
	m := NewSoftmax(60, 10, 0)
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

func BenchmarkCNNGradSingleSample(b *testing.B) {
	ds := classificationDataset(4, 784, 10, 2)
	m := NewPaperCNN(10, 8, 0)
	w := make([]float64, m.Dim())
	m.InitParams(randx.New(3), w)
	g := make([]float64, m.Dim())
	idx := []int{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(g, w, ds, idx)
	}
}

func TestSVMPlainHingeGradient(t *testing.T) {
	// The plain hinge is non-smooth only at margin==0; a generic random
	// dataset has all margins away from the kink w.p. 1, so central
	// finite differences remain valid.
	ds := classificationDataset(25, 4, 2, 20)
	checkModelGradient(t, NewSVM(4, false, 0.05), ds, nil, 21, 1e-5)
}

func TestLinearRegressionPredictValue(t *testing.T) {
	m := NewLinearRegression(2, true, 0)
	w := []float64{2, -1, 0.5} // weights + bias
	if got := m.PredictValue(w, []float64{3, 4}); got != 2*3-4+0.5 {
		t.Fatalf("PredictValue = %v", got)
	}
}
