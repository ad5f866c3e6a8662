package models

import (
	"fedproxvr/internal/data"
	"fedproxvr/internal/mathx"
	"fedproxvr/internal/tensor"
)

// LinearRegression is the least-squares model from the paper's System Model
// section: f_i(w) = ½(x_iᵀw − y_i)², with optional L2 regularization. The
// parameter vector is w ∈ R^d plus one trailing bias if Bias is set.
//
// Loss and Grad run batch-first: a chunk of residuals is one X·w product
// and the gradient one Xᵀ·r accumulation.
type LinearRegression struct {
	Features int
	Bias     bool
	L2       float64

	res  []float64 // per-chunk residuals, gradChunk
	xbuf []float64 // gathered rows, gradChunk×Features (idx path only)
	par  *tensor.Par
}

// NewLinearRegression constructs the model for d input features.
func NewLinearRegression(d int, bias bool, l2 float64) *LinearRegression {
	if d <= 0 {
		panic("models: features must be positive")
	}
	return &LinearRegression{Features: d, Bias: bias, L2: l2,
		res:  make([]float64, gradChunk),
		xbuf: make([]float64, gradChunk*d),
		par:  tensor.NewPar()}
}

// Dim implements Model.
func (m *LinearRegression) Dim() int {
	if m.Bias {
		return m.Features + 1
	}
	return m.Features
}

// residualChunk fills m.res[:b] with x_iᵀw + bias − y_i for the chunk
// [lo, lo+b) and returns the gathered input rows.
func (m *LinearRegression) residualChunk(w []float64, ds *data.Dataset, idx []int, lo, b int) ([]float64, []float64) {
	x := gatherRows(ds, idx, lo, b, m.xbuf)
	res := m.res[:b]
	tensor.MatOf(b, m.Features, x).MulVec(res, w[:m.Features])
	for r := 0; r < b; r++ {
		i := lo + r
		if idx != nil {
			i = idx[lo+r]
		}
		res[r] -= ds.YReg[i]
		if m.Bias {
			res[r] += w[m.Features]
		}
	}
	return res, x
}

// Loss implements Model.
func (m *LinearRegression) Loss(w []float64, ds *data.Dataset, idx []int) float64 {
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		res, _ := m.residualChunk(w, ds, idx, lo, b)
		for _, r := range res {
			sum += 0.5 * r * r
		}
	}
	return sum/float64(n) + addL2(m.L2, w, nil)
}

// Grad implements Model: ∇ = (1/n) Σ r_i·x_i, one Xᵀ·r per chunk.
func (m *LinearRegression) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	mathx.Zero(grad)
	n := batchSize(ds, idx)
	if n == 0 {
		return
	}
	inv := 1 / float64(n)
	gw := tensor.MatOf(1, m.Features, grad[:m.Features])
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		res, x := m.residualChunk(w, ds, idx, lo, b)
		mathx.Scal(inv, res)
		m.par.GemmTN(1, tensor.MatOf(b, 1, res), tensor.MatOf(b, m.Features, x), 1, gw)
		if m.Bias {
			for _, r := range res {
				grad[m.Features] += r
			}
		}
	}
	addL2(m.L2, w, grad)
}

// PredictValue returns the regression prediction for features x.
func (m *LinearRegression) PredictValue(w, x []float64) float64 {
	v := mathx.Dot(w[:m.Features], x)
	if m.Bias {
		v += w[m.Features]
	}
	return v
}

// Clone implements Model: shares the immutable shape, fresh scratch.
func (m *LinearRegression) Clone() Model {
	return NewLinearRegression(m.Features, m.Bias, m.L2)
}

// SVM is the binary support-vector machine from the paper's System Model
// section, labels in {−1, +1} encoded as classes {0, 1}. With Squared set
// it uses the smooth squared hinge ½·max(0, 1−y·xᵀw)²; otherwise the plain
// hinge with its subgradient. Scores are computed one chunk GEMV at a time.
type SVM struct {
	Features int
	Squared  bool
	L2       float64

	res  []float64 // per-chunk scores then coefficients, gradChunk
	xbuf []float64 // gathered rows, gradChunk×Features (idx path only)
	par  *tensor.Par
}

// NewSVM constructs a binary SVM over d features.
func NewSVM(d int, squared bool, l2 float64) *SVM {
	if d <= 0 {
		panic("models: features must be positive")
	}
	return &SVM{Features: d, Squared: squared, L2: l2,
		res:  make([]float64, gradChunk),
		xbuf: make([]float64, gradChunk*d),
		par:  tensor.NewPar()}
}

// Dim implements Model.
func (m *SVM) Dim() int { return m.Features }

// label maps class {0,1} to {−1,+1}.
func label(y int) float64 {
	if y == 0 {
		return -1
	}
	return 1
}

// Loss implements Model.
func (m *SVM) Loss(w []float64, ds *data.Dataset, idx []int) float64 {
	n := batchSize(ds, idx)
	if n == 0 {
		return 0
	}
	var sum float64
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		x := gatherRows(ds, idx, lo, b, m.xbuf)
		scores := m.res[:b]
		tensor.MatOf(b, m.Features, x).MulVec(scores, w)
		for r := 0; r < b; r++ {
			margin := 1 - label(chunkLabel(ds, idx, lo, r))*scores[r]
			if margin > 0 {
				if m.Squared {
					sum += 0.5 * margin * margin
				} else {
					sum += margin
				}
			}
		}
	}
	return sum/float64(n) + addL2(m.L2, w, nil)
}

// Grad implements Model: for violating samples, ∇ += coef_i·x_i with
// coef_i = −y_i/n (times the margin for the squared hinge), one Xᵀ·coef
// per chunk. Satisfied samples get a zero coefficient, which the kernel
// skips.
func (m *SVM) Grad(grad, w []float64, ds *data.Dataset, idx []int) {
	mathx.Zero(grad)
	n := batchSize(ds, idx)
	if n == 0 {
		return
	}
	inv := 1 / float64(n)
	gw := tensor.MatOf(1, m.Features, grad)
	for lo := 0; lo < n; lo += gradChunk {
		b := min(gradChunk, n-lo)
		x := gatherRows(ds, idx, lo, b, m.xbuf)
		coef := m.res[:b]
		tensor.MatOf(b, m.Features, x).MulVec(coef, w)
		for r := 0; r < b; r++ {
			y := label(chunkLabel(ds, idx, lo, r))
			margin := 1 - y*coef[r]
			if margin <= 0 {
				coef[r] = 0
				continue
			}
			c := -y * inv
			if m.Squared {
				c *= margin
			}
			coef[r] = c
		}
		m.par.GemmTN(1, tensor.MatOf(b, 1, coef), tensor.MatOf(b, m.Features, x), 1, gw)
	}
	addL2(m.L2, w, grad)
}

// Predict implements Classifier: class 1 if xᵀw ≥ 0 else class 0.
func (m *SVM) Predict(w, x []float64) int {
	if mathx.Dot(w, x) >= 0 {
		return 1
	}
	return 0
}

// PredictBatch implements Classifier: one score GEMV per chunk.
func (m *SVM) PredictBatch(pred []int, w []float64, ds *data.Dataset, lo, hi int) {
	for ; lo < hi; lo += gradChunk {
		b := min(gradChunk, hi-lo)
		scores := m.res[:b]
		tensor.MatOf(b, m.Features, gatherRows(ds, nil, lo, b, nil)).MulVec(scores, w)
		for r, s := range scores {
			pred[r] = 0
			if s >= 0 {
				pred[r] = 1
			}
		}
		pred = pred[b:]
	}
}

// Clone implements Model: shares the immutable shape, fresh scratch.
func (m *SVM) Clone() Model { return NewSVM(m.Features, m.Squared, m.L2) }
