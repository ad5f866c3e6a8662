package models

import (
	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/tensor"
)

// Softmax is multinomial logistic regression — the paper's convex task
// ("image classification with a multinomial logistic regression model").
// Parameters are the weight matrix W (C×d, row-major) followed by the bias
// b (C). The per-sample loss is cross-entropy −log softmax(Wx+b)[y].
//
// Loss and Grad are batch-first: a chunk of samples becomes one
// logits = X·Wᵀ GEMM, held class-major for the softmax head (logits
// transposed, plus the bias), and the gradient one dW += P·X GEMM over the
// head's class-major gradient P.
type Softmax struct {
	Features int
	Classes  int

	logits []float64 // gradChunk×Classes scratch; cloned per goroutine
	zt     []float64 // the logits class-major, Classes×gradChunk
	xbuf   []float64 // gathered rows, gradChunk×Features (idx path only)
	par    *tensor.Par
}

// NewSoftmax constructs the model.
func NewSoftmax(d, classes int) *Softmax {
	if d <= 0 || classes <= 1 {
		panic("models: Softmax needs d>0 and classes>1")
	}
	n := gradChunk * classes
	buf := make([]float64, 2*n+gradChunk*d) // one allocation for the three
	return &Softmax{Features: d, Classes: classes,
		logits: buf[:n:n],
		zt:     buf[n : 2*n : 2*n],
		xbuf:   buf[2*n:],
		par:    tensor.NewPar()}
}

// Dim implements Model.
func (m *Softmax) Dim() int { return m.Classes*m.Features + m.Classes }

// forwardChunk fills m.zt[:Classes*b] with the affine scores of the chunk
// [lo, lo+b), class-major: zt = (X·Wᵀ)ᵀ + b·1ᵀ. The GEMM keeps X as its A
// operand, so every dot fuses x·w in the operand roles a NaN payload
// depends on (DESIGN §5.5), and the transposing copy adds the bias. It
// returns the class-major logits and X, the chunk's rows (gathered into
// m.xbuf, or the dataset's own on idx == nil).
func (m *Softmax) forwardChunk(w []float64, ds *data.Dataset, idx []int, lo, b int) (zt, x tensor.Mat) {
	nw := m.Classes * m.Features
	x = tensor.MatOf(b, m.Features, gatherRows(ds, idx, lo, b, m.xbuf))
	lm := tensor.MatOf(b, m.Classes, m.logits[:b*m.Classes])
	m.par.GemmNT(x, tensor.MatOf(m.Classes, m.Features, w[:nw]), false, lm)
	zt = tensor.MatOf(m.Classes, b, m.zt[:m.Classes*b])
	tensor.TransposeInto(zt, lm, w[nw:])
	return zt, x
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
		zt, _ := m.forwardChunk(w, ds, idx, lo, b)
		sum = softmaxHead(sum, zt.Data, b, m.Classes, ds, idx, lo, true, 0, nil)
	}
	return sum / float64(n)
}

// Grad implements Model: ∇_{W_c} = (p_c − 1{y=c})·x, ∇_{b_c} = p_c − 1{y=c},
// accumulated one chunk at a time in ascending sample order: the head adds
// the bias gradient, one GEMM the weight gradient.
func (m *Softmax) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	m.lossGrad(grad, w, ds, idx, false)
}

// LossGrad implements Model: Grad's pass, which also sums each row's loss
// term from the exponentials its softmax sums.
func (m *Softmax) LossGrad(grad, w []float64, ds *data.Dataset) float64 {
	return m.lossGrad(grad, w, ds, nil, true)
}

// lossGrad is the one body of Grad and LossGrad. With loss set it returns
// Loss's value bit for bit: softmaxHead adds the same terms in the same
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
		zt, x := m.forwardChunk(w, ds, idx, lo, b)
		sum = softmaxHead(sum, zt.Data, b, m.Classes, ds, idx, lo, loss, inv, grad[nw:])
		m.par.GemmNN(zt, x, true, dw)
	}
	return sum / float64(n)
}

// PredictBatch implements Classifier: one logits GEMM and one class-major
// argmax per chunk.
func (m *Softmax) PredictBatch(pred []int, w []float64, ds *data.Dataset, lo, hi int) {
	for ; lo < hi; lo += gradChunk {
		b := min(gradChunk, hi-lo)
		zt, _ := m.forwardChunk(w, ds, nil, lo, b)
		tensor.HeadArgMax(pred, zt.Data, b, m.Classes)
		pred = pred[b:]
	}
}

// Clone implements Model: shares the immutable shape, fresh scratch.
func (m *Softmax) Clone() Model {
	return NewSoftmax(m.Features, m.Classes)
}
