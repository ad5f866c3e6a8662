// Package models defines the learning tasks of the paper as stateless loss
// oracles: every model evaluates the empirical loss F(w) and its gradient
// over an arbitrary subset of a dataset at an arbitrary flat parameter
// vector w. This is the contract the variance-reduced optimizers need
// (∇f_i at two parameter points per step) and the federated server needs
// (plain vector aggregation).
//
// Provided models: multinomial logistic regression (the paper's convex
// task), the paper's two-layer CNN (the non-convex task) and an MLP, the
// latter two built on package nn.
package models

import (
	"math"

	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
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

// addL2 adds the value and gradient of (reg/2)‖w‖² to a loss/grad pair.
// Returns the regularization value; if grad is non-nil adds reg*w into it.
func addL2(reg float64, w, grad []float64) float64 {
	if reg == 0 {
		return 0
	}
	if grad != nil {
		mathx.Axpy(reg, w, grad)
	}
	return reg / 2 * mathx.Nrm2Sq(w)
}

// xentChunk is the softmax cross-entropy head on one chunk: z holds the
// logits of the chunk's b rows, c to a row, and row r is sample lo+r of the
// selection. It takes each row's max and shifts the row by it, exponentiates
// the whole chunk in one tensor.Exp call, and sums each row's exponentials
// in ascending order. With loss set it returns sum plus every row's
// logsumexp(z) − z[y], added in ascending row order, and otherwise returns
// sum untouched without taking a log. With inv != 0 it leaves in z the
// gradient rows (softmax(z) − e_y)·inv: each row scaled by 1/its sum, its
// label entry less 1, then scaled by inv. With inv == 0 z is left as scratch.
//
// Per row these are the operations of a max-shifted softmax and
// log-sum-exp taken a row at a time — the same max, differences,
// exponentials (tensor.Exp is math.Exp bit for bit), ascending sum, log
// and scale — so the values are theirs bit for bit.
func xentChunk(sum float64, z []float64, b, c int, ds *data.Dataset, idx []int, lo int, loss bool, inv float64) float64 {
	var mx, zy [gradChunk]float64
	for r := 0; r < b; r++ {
		row := z[r*c : (r+1)*c]
		m := mathx.Max(row)
		mx[r], zy[r] = m, row[chunkLabel(ds, idx, lo, r)]
		for i, v := range row {
			row[i] = v - m
		}
	}
	tensor.Exp(z[:b*c])
	for r := 0; r < b; r++ {
		row := z[r*c : (r+1)*c]
		var s float64
		for _, e := range row {
			s += e
		}
		if loss {
			lse := math.Inf(-1)
			if m := mx[r]; !math.IsInf(m, -1) {
				lse = m + math.Log(s)
			}
			sum += lse - zy[r]
		}
		if inv != 0 {
			mathx.Scal(1/s, row)
			row[chunkLabel(ds, idx, lo, r)] -= 1
			mathx.Scal(inv, row)
		}
	}
	return sum
}
