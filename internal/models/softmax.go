package models

import (
	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/tensor"
)

// Softmax is multinomial logistic regression — the paper's convex task
// ("image classification with a multinomial logistic regression model").
// Parameters are the weight matrix W (C×d, row-major) followed by the bias
// b (C). The per-sample loss is cross-entropy −log softmax(Wx+b)[y], plus
// optional L2 regularization on the whole parameter vector.
//
// Loss and Grad are batch-first: a chunk of samples becomes one
// logits = X·Wᵀ GEMM, and the gradient one dW += dLᵀ·X GEMM.
type Softmax struct {
	Features int
	Classes  int
	L2       float64

	logits []float64 // gradChunk×Classes scratch; cloned per goroutine
	xbuf   []float64 // gathered rows, gradChunk×Features (idx path only)
	par    *tensor.Par
}

// NewSoftmax constructs the model.
func NewSoftmax(d, classes int, l2 float64) *Softmax {
	if d <= 0 || classes <= 1 {
		panic("models: Softmax needs d>0 and classes>1")
	}
	return &Softmax{Features: d, Classes: classes, L2: l2,
		logits: make([]float64, gradChunk*classes),
		xbuf:   make([]float64, gradChunk*d),
		par:    tensor.NewPar()}
}

// Dim implements Model.
func (m *Softmax) Dim() int { return m.Classes*m.Features + m.Classes }

// forwardChunk fills m.logits[:b*Classes] with the affine scores of the
// chunk [lo, lo+b): logits = X·Wᵀ + 1·bᵀ. It returns the logits and X, the
// chunk's rows (gathered into m.xbuf, or the dataset's own on idx == nil).
func (m *Softmax) forwardChunk(w []float64, ds *data.Dataset, idx []int, lo, b int) (lm, x tensor.Mat) {
	nw := m.Classes * m.Features
	x = tensor.MatOf(b, m.Features, gatherRows(ds, idx, lo, b, m.xbuf))
	lm = tensor.MatOf(b, m.Classes, m.logits[:b*m.Classes])
	m.par.GemmNT(1, x, tensor.MatOf(m.Classes, m.Features, w[:nw]), 0, lm)
	tensor.AddRowVec(lm, w[nw:])
	return lm, x
}

// Loss implements Model.
func (m *Softmax) Loss(w []float64, ds *data.Dataset, idx []int) float64 {
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		lm, _ := m.forwardChunk(w, ds, idx, lo, b)
		sum = xentChunk(sum, lm.Data, b, m.Classes, ds, idx, lo, true, 0)
	}
	return sum/float64(n) + addL2(m.L2, w, nil)
}

// Grad implements Model: ∇_{W_c} = (p_c − 1{y=c})·x, ∇_{b_c} = p_c − 1{y=c},
// accumulated one chunk GEMM at a time in ascending sample order.
func (m *Softmax) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	m.lossGrad(grad, w, ds, idx, false)
}

// LossGrad implements Model: Grad's pass, which also sums each row's loss
// term from the exponentials its softmax sums.
func (m *Softmax) LossGrad(grad, w []float64, ds *data.Dataset) float64 {
	return m.lossGrad(grad, w, ds, nil, true)
}

// lossGrad is the one body of Grad and LossGrad. With loss set it returns
// Loss's value bit for bit: xentChunk adds the same terms in the same
// order. Without it no log is taken and Grad discards the result.
func (m *Softmax) lossGrad(grad, w []float64, ds *data.Dataset, idx []int, loss bool) float64 {
	mathx.Zero(grad)
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	inv := 1 / float64(n)
	nw := m.Classes * m.Features
	dw := tensor.MatOf(m.Classes, m.Features, grad[:nw])
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		lm, x := m.forwardChunk(w, ds, idx, lo, b)
		sum = xentChunk(sum, lm.Data, b, m.Classes, ds, idx, lo, loss, inv)
		m.par.GemmTN(1, lm, x, 1, dw)
		tensor.ColSumsAcc(grad[nw:], lm)
	}
	return sum/float64(n) + addL2(m.L2, w, grad)
}

// PredictBatch implements Classifier: one logits GEMM per chunk.
func (m *Softmax) PredictBatch(pred []int, w []float64, ds *data.Dataset, lo, hi int) {
	for ; lo < hi; lo += gradChunk {
		b := min(gradChunk, hi-lo)
		lm, _ := m.forwardChunk(w, ds, nil, lo, b)
		for r := 0; r < b; r++ {
			pred[r] = mathx.ArgMax(lm.Row(r))
		}
		pred = pred[b:]
	}
}

// Clone implements Model: shares the immutable shape, fresh scratch.
func (m *Softmax) Clone() Model {
	return NewSoftmax(m.Features, m.Classes, m.L2)
}
