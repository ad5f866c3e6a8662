// Package models defines the learning tasks of the paper as stateless loss
// oracles: every model evaluates the empirical loss F(w) and its gradient
// over an arbitrary subset of a dataset at an arbitrary flat parameter
// vector w. This is the contract the variance-reduced optimizers need
// (∇f_i at two parameter points per step) and the federated server needs
// (plain vector aggregation).
//
// Provided models: multinomial logistic regression (the paper's convex
// task) and, through NNModel over package nn, the paper's two-layer CNN
// (the non-convex task).
package models

import (
	"fedproxvr/internal/data"
	"fedproxvr/internal/tensor"
)

// Model is a differentiable empirical-risk oracle over a dataset.
//
// For both Loss and Grad, idx selects the samples (mini-batch); nil means
// the full dataset. Loss returns the MEAN loss over the batch; Grad
// overwrites grad with the MEAN gradient over the batch. Implementations
// may keep internal scratch, so a single Model value must not be used from
// multiple goroutines — use Clone to get an independent view sharing the
// immutable structure.
type Model interface {
	// Dim is the flat parameter dimension l.
	Dim() int
	// Loss returns (1/|idx|) Σ_{i∈idx} f_i(w).
	Loss(w []float64, ds *data.Dataset, idx []int) float64
	// Grad overwrites grad with (1/|idx|) Σ_{i∈idx} ∇f_i(w).
	Grad(grad, w []float64, ds *data.Dataset, idx []int)
	// LossGrad is Grad over the whole of ds in one pass that also returns
	// Loss(w, ds, nil), bit for bit.
	LossGrad(grad, w []float64, ds *data.Dataset) float64
	// Clone returns a Model safe to use from another goroutine.
	Clone() Model
}

// Classifier is implemented by models that predict a class label.
type Classifier interface {
	Model
	// PredictBatch writes the predicted class of row lo+r of ds into
	// pred[r] for every row in [lo, hi), running the model's chunked batch
	// forward (the GEMM path Loss and Grad use). It uses the model's
	// scratch like Loss and Grad do.
	PredictBatch(pred []int, w []float64, ds *data.Dataset, lo, hi int)
}

// PredictBlock is the row-block size callers cut a dataset into when they
// spread batched prediction over several workers. It is a multiple of the
// models' internal chunk, so a row sits at the same position of the same
// chunk whether the dataset is predicted whole or block by block, and the
// labels — hence any count over them — do not depend on the partition.
const PredictBlock = 8 * gradChunk

// CountCorrect returns how many of the rows [lo, hi) of ds c classifies
// correctly under w. pred is scratch for at least hi-lo labels.
func CountCorrect(c Classifier, pred []int, w []float64, ds *data.Dataset, lo, hi int) int {
	pred = pred[:hi-lo]
	c.PredictBatch(pred, w, ds, lo, hi)
	correct := 0
	for r, p := range pred {
		if p == ds.Y[lo+r] {
			correct++
		}
	}
	return correct
}

// batchSize returns the effective batch size for an idx argument.
func batchSize(ds *data.Dataset, idx []int) int {
	if idx == nil {
		return ds.N()
	}
	return len(idx)
}

// gatherRows returns the b×Dim input rows for the chunk [lo, lo+b) of a
// selection: a zero-copy view of the dataset's row-major storage when
// idx == nil, otherwise a gather into buf.
func gatherRows(ds *data.Dataset, idx []int, lo, b int, buf []float64) []float64 {
	if idx == nil {
		return ds.X[lo*ds.Dim : (lo+b)*ds.Dim]
	}
	d := ds.Dim
	for r := 0; r < b; r++ {
		copy(buf[r*d:(r+1)*d], ds.Sample(idx[lo+r]))
	}
	return buf[:b*d]
}

// chunkLabel returns the class label of row r of the chunk at lo.
func chunkLabel(ds *data.Dataset, idx []int, lo, r int) int {
	if idx == nil {
		return ds.Y[lo+r]
	}
	return ds.Y[idx[lo+r]]
}

// softmaxHead is the softmax cross-entropy head on one chunk, which both
// models share: z holds the logits of the chunk's b samples class-major (c
// rows of b; class j's row is z[j*b:(j+1)*b], and column r is sample lo+r
// of the selection). It takes each sample's max and shifts the sample by
// it, exponentiates the whole block in one tensor.Exp call, and sums each
// sample's exponentials in ascending class order. With loss set it returns
// sum plus every sample's logsumexp(z) − z[y], added in ascending sample
// order, and otherwise returns sum untouched without taking a log. With
// inv != 0 it leaves in z the gradient (softmax(z) − e_y)·inv, each entry
// scaled by 1/its sample's sum, the label's entry less 1, then scaled by
// inv, and adds each class row into db[j] in ascending sample order when
// db is non-nil. With inv == 0 z is left as scratch.
//
// Per sample these are the operations of a max-shifted softmax and
// log-sum-exp taken a row at a time — the same max, differences,
// exponentials (tensor.Exp is math.Exp bit for bit), ascending sum, log
// and scales — so the values are theirs bit for bit; the tensor head
// kernels run them four samples at a time, one sample a lane.
func softmaxHead(sum float64, z []float64, b, c int, ds *data.Dataset, idx []int, lo int, loss bool, inv float64, db []float64) float64 {
	var mx, zy, s [gradChunk]float64
	var y [gradChunk]int
	for r := 0; r < b; r++ {
		y[r] = chunkLabel(ds, idx, lo, r)
		zy[r] = z[y[r]*b+r]
	}
	tensor.HeadMaxShift(z, b, c, mx[:b])
	tensor.Exp(z[:b*c])
	tensor.HeadSums(z, b, c, s[:b])
	if loss {
		sum = tensor.HeadLoss(sum, mx[:b], s[:b], zy[:b])
	}
	if inv != 0 {
		tensor.HeadGrad(z, b, c, s[:b], y[:b], inv, db)
	}
	return sum
}
