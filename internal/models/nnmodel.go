package models

import (
	"math/rand"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/nn"
	"fedproxvr/internal/tensor"
)

// gradChunk is the fixed internal batch size for whole-minibatch passes.
// Chunks are processed in ascending order, so results do not depend on the
// chunk size picking different parallel schedules — only on the (fixed)
// reduction orders inside the batched kernels.
const gradChunk = 32

// NNModel wraps an nn.Network with a softmax cross-entropy head, turning it
// into a Model/Classifier usable by all federated algorithms. The network
// is shared immutably between clones; each clone owns its workspace, built
// by its first evaluation — a model that only ever serves as a clone
// template (task.Model in every runner, worker and node) never pays for
// one. Like any Model, one value must not be evaluated concurrently.
//
// Loss and Grad are batch-first: the selected samples flow through the
// network gradChunk rows at a time as blocked GEMMs.
type NNModel struct {
	Net *nn.Network

	ws   *nn.Workspace // nil until the first evaluation (see workspace)
	xbuf []float64     // gathered input rows, gradChunk×InSize (idx path only)
	zt   []float64     // the head's class-major logits and gradient, OutSize×gradChunk
	dOut []float64     // the head gradient sample-major, gradChunk×OutSize
}

// NewNNModel wraps net; net.OutSize() is the class count.
func NewNNModel(net *nn.Network) *NNModel {
	return &NNModel{Net: net}
}

// workspace builds the evaluation scratch on first use.
func (m *NNModel) workspace() {
	if m.ws == nil {
		m.ws = m.Net.NewWorkspaceBatch(gradChunk)
		m.xbuf = make([]float64, gradChunk*m.Net.InSize())
		n := gradChunk * m.Net.OutSize()
		buf := make([]float64, 2*n) // one allocation for the two
		m.zt, m.dOut = buf[:n:n], buf[n:]
	}
}

// Dim implements Model.
func (m *NNModel) Dim() int { return m.Net.NumParams() }

// Loss implements Model.
func (m *NNModel) Loss(w []float64, ds *data.Dataset, idx []int) float64 {
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	m.workspace()
	out := m.Net.OutSize()
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		x := gatherRows(ds, idx, lo, b, m.xbuf)
		zt := m.logits(w, x, b)
		sum = softmaxHead(sum, zt.Data, b, out, ds, idx, lo, true, 0, nil)
	}
	return sum / float64(n)
}

// Grad implements Model: backprop of (softmax − onehot)/n through the net,
// whole chunks at a time.
func (m *NNModel) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	m.lossGrad(grad, w, ds, idx, false)
}

// LossGrad implements Model: Grad's pass, which also sums each row's loss
// term from the exponentials its softmax sums.
func (m *NNModel) LossGrad(grad, w []float64, ds *data.Dataset) float64 {
	return m.lossGrad(grad, w, ds, nil, true)
}

// lossGrad is the one body of Grad and LossGrad; with loss set its loss is
// Loss's bit for bit (the same terms, added in the same order); without it
// no log is taken and Grad discards the result.
func (m *NNModel) lossGrad(grad, w []float64, ds *data.Dataset, idx []int, loss bool) float64 {
	mathx.Zero(grad)
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	m.workspace()
	inv := 1 / float64(n)
	out := m.Net.OutSize()
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		x := gatherRows(ds, idx, lo, b, m.xbuf)
		zt := m.logits(w, x, b)
		sum = softmaxHead(sum, zt.Data, b, out, ds, idx, lo, loss, inv, nil)
		dOut := tensor.MatOf(b, out, m.dOut[:b*out])
		tensor.TransposeInto(dOut, zt, nil)
		m.Net.BackwardBatch(w, dOut.Data, b, m.ws, grad)
	}
	return sum / float64(n)
}

// logits runs the network over the chunk's b rows x and returns its
// output class-major, in m.zt: the head's layout.
func (m *NNModel) logits(w, x []float64, b int) tensor.Mat {
	out := m.Net.OutSize()
	zt := tensor.MatOf(out, b, m.zt[:out*b])
	tensor.TransposeInto(zt, tensor.MatOf(b, out, m.Net.ForwardBatch(w, x, b, m.ws)), nil)
	return zt
}

// PredictBatch implements Classifier: one batched forward and one
// class-major argmax per chunk.
func (m *NNModel) PredictBatch(pred []int, w []float64, ds *data.Dataset, lo, hi int) {
	m.workspace()
	for ; lo < hi; lo += gradChunk {
		b := min(gradChunk, hi-lo)
		zt := m.logits(w, gatherRows(ds, nil, lo, b, nil), b)
		tensor.HeadArgMax(pred, zt.Data, b, zt.Rows)
		pred = pred[b:]
	}
}

// Clone implements Model: the network is shared, the clone builds its own
// workspace when first evaluated.
func (m *NNModel) Clone() Model { return NewNNModel(m.Net) }

// InitParams initializes a parameter vector for this model.
func (m *NNModel) InitParams(rng *rand.Rand, w []float64) {
	m.Net.InitParams(rng, w)
}

// NewPaperCNN builds the paper's non-convex model: "two 5x5 convolution
// layers (32 and 64 channels ..., max pooling size 2x2 is used after each
// layer), ReLu activation, and a softmax layer at the end", over 28×28
// single-channel images with `classes` outputs. Each convolution's ReLU and
// 2×2 max-pool run as one fused nn.ReLUMaxPool layer. Pass a channel width
// divisor > 1 to build a proportionally thinner network for fast tests and
// benches (e.g. 8 → 4/8 channels).
func NewPaperCNN(classes, widthDivisor int) *NNModel {
	if widthDivisor < 1 {
		widthDivisor = 1
	}
	ch1 := max(1, 32/widthDivisor)
	ch2 := max(1, 64/widthDivisor)
	s1 := tensor.ConvShape{InC: 1, InH: 28, InW: 28, K: 5}
	c1 := nn.NewConv2D(s1, ch1)
	s2 := tensor.ConvShape{InC: ch1, InH: 14, InW: 14, K: 5}
	c2 := nn.NewConv2D(s2, ch2)
	net := nn.MustNetwork(
		c1, nn.NewReLUMaxPool(c1),
		c2, nn.NewReLUMaxPool(c2),
		nn.NewDense(ch2*7*7, classes),
	)
	return NewNNModel(net)
}
