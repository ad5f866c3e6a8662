package nn

import (
	"math/rand"

	"fedproxvr/internal/tensor"
)

// Conv2D is a 2-D convolution over channels-first volumes, implemented as
// im2col + GEMM. The parameter view holds the kernel W, row-major
// (OutC × InC*KH*KW), followed by the per-output-channel bias (OutC).
// Per-sample activations are flat: input len = InC*InH*InW, output len =
// OutC*OutH*OutW; a batch is b such rows.
//
// Batched execution is deterministic by construction: forward and the
// input-gradient pass fan out over samples (disjoint outputs), while the
// weight gradient fans out over rows of dW with the batch reduced in
// ascending sample order inside each row block.
type Conv2D struct {
	Shape tensor.ConvShape
	OutC  int
}

// NewConv2D constructs a convolution layer.
func NewConv2D(shape tensor.ConvShape, outC int) *Conv2D {
	if outC <= 0 {
		panic("nn: Conv2D OutC must be positive")
	}
	if shape.Stride <= 0 {
		panic("nn: Conv2D stride must be positive")
	}
	if shape.OutH() <= 0 || shape.OutW() <= 0 {
		panic("nn: Conv2D output collapses to zero")
	}
	return &Conv2D{Shape: shape, OutC: outC}
}

// InSize implements Layer.
func (c *Conv2D) InSize() int { return c.Shape.InC * c.Shape.InH * c.Shape.InW }

// OutSize implements Layer.
func (c *Conv2D) OutSize() int { return c.OutC * c.Shape.OutH() * c.Shape.OutW() }

// NumParams implements Layer.
func (c *Conv2D) NumParams() int { return c.OutC*c.Shape.ColRows() + c.OutC }

// convDWGrain is the fixed row-block size for the dW reduction fan-out.
const convDWGrain = 4

type convCache struct {
	layer *Conv2D
	col   []float64 // per-sample im2col, maxBatch×(ColRows×ColCols); reused as dcol scratch in the input-gradient pass
	par   *tensor.Par

	// Per-call operands for the pre-bound bodies (no closure allocation on
	// the hot path).
	params, x, y, dY, dX, dParams []float64
	b                             int

	fwdBody, dwBody, dxBody func(lo, hi int)
}

// NewCache implements Layer.
func (c *Conv2D) NewCache(maxBatch int) Cache {
	colN := c.Shape.ColRows() * c.Shape.ColCols()
	cc := &convCache{
		layer: c,
		col:   make([]float64, maxBatch*colN),
		par:   tensor.NewPar(),
	}
	cc.fwdBody = cc.forwardSamples
	cc.dwBody = cc.weightGradRows
	cc.dxBody = cc.inputGradSamples
	return cc
}

// forwardSamples computes samples [lo, hi): im2col then one GEMM each.
func (cc *convCache) forwardSamples(lo, hi int) {
	l := cc.layer
	rows, cols := l.Shape.ColRows(), l.Shape.ColCols()
	colN := rows * cols
	inN, outN := l.InSize(), l.OutSize()
	nw := l.OutC * rows
	w := tensor.MatOf(l.OutC, rows, cc.params[:nw])
	bias := cc.params[nw:]
	for s := lo; s < hi; s++ {
		colS := cc.col[s*colN : (s+1)*colN]
		tensor.Im2Col(l.Shape, cc.x[s*inN:(s+1)*inN], colS)
		outS := tensor.MatOf(l.OutC, cols, cc.y[s*outN:(s+1)*outN])
		tensor.GemmNN(1, w, tensor.MatOf(rows, cols, colS), 0, outS)
		for oc := 0; oc < l.OutC; oc++ {
			bv := bias[oc]
			row := outS.Row(oc)
			for i := range row {
				row[i] += bv
			}
		}
	}
}

// weightGradRows accumulates dW rows [lo, hi) and the matching db entries,
// reducing over the batch in ascending sample order:
//
//	dW += Σ_s dOut_s · col_sᵀ,   db_oc += Σ_s Σ dOut_s[oc].
func (cc *convCache) weightGradRows(lo, hi int) {
	l := cc.layer
	rows, cols := l.Shape.ColRows(), l.Shape.ColCols()
	colN := rows * cols
	outN := l.OutSize()
	nw := l.OutC * rows
	dw := tensor.MatOf(l.OutC, rows, cc.dParams[:nw])
	db := cc.dParams[nw:]
	for s := 0; s < cc.b; s++ {
		dOutS := tensor.MatOf(l.OutC, cols, cc.dY[s*outN:(s+1)*outN])
		colS := tensor.MatOf(rows, cols, cc.col[s*colN:(s+1)*colN])
		tensor.GemmNTRows(1, dOutS, colS, 1, dw, lo, hi)
		for oc := lo; oc < hi; oc++ {
			var sum float64
			for _, v := range dOutS.Row(oc) {
				sum += v
			}
			db[oc] += sum
		}
	}
}

// inputGradSamples computes dX for samples [lo, hi):
// dIn_s = col2im(Wᵀ · dOut_s), overwriting the sample's im2col scratch
// (the forward col is no longer needed once dW has been accumulated).
func (cc *convCache) inputGradSamples(lo, hi int) {
	l := cc.layer
	rows, cols := l.Shape.ColRows(), l.Shape.ColCols()
	colN := rows * cols
	inN, outN := l.InSize(), l.OutSize()
	nw := l.OutC * rows
	w := tensor.MatOf(l.OutC, rows, cc.params[:nw])
	for s := lo; s < hi; s++ {
		dOutS := tensor.MatOf(l.OutC, cols, cc.dY[s*outN:(s+1)*outN])
		dcolS := cc.col[s*colN : (s+1)*colN]
		tensor.GemmTN(1, w, dOutS, 0, tensor.MatOf(rows, cols, dcolS))
		dInS := cc.dX[s*inN : (s+1)*inN]
		for i := range dInS {
			dInS[i] = 0
		}
		tensor.Col2Im(l.Shape, dcolS, dInS)
	}
}

// Forward implements Layer: out_s = W·col(in_s) + b for every sample,
// fanned out over samples.
func (c *Conv2D) Forward(params, x, y []float64, b int, cache Cache) {
	cc := cache.(*convCache)
	cc.params, cc.x, cc.y, cc.b = params, x, y, b
	perSample := 2*c.OutC*c.Shape.ColRows()*c.Shape.ColCols() + c.InSize()
	cc.par.Run(b, 1, b*perSample, cc.fwdBody)
}

// Backward implements Layer:
//
//	dW += Σ_s dOut_s · col_sᵀ,   db_oc += Σ_s Σ dOut_s[oc],
//	dIn_s = col2im(Wᵀ · dOut_s)   (skipped when dX is nil).
func (c *Conv2D) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	cc := cache.(*convCache)
	if b != cc.b {
		panic("nn: Conv2D Backward batch differs from last Forward")
	}
	cc.params, cc.dY, cc.dX, cc.dParams = params, dY, dX, dParams
	gemmCost := 2 * c.OutC * c.Shape.ColRows() * c.Shape.ColCols()
	// dW first: the input-gradient pass overwrites the im2col scratch.
	cc.par.Run(c.OutC, convDWGrain, b*gemmCost, cc.dwBody)
	if dX != nil {
		cc.par.Run(b, 1, b*(gemmCost+c.InSize()), cc.dxBody)
	}
}

// Init implements Initializer: Glorot-uniform kernel, zero bias.
func (c *Conv2D) Init(rng *rand.Rand, params []float64) {
	nw := c.OutC * c.Shape.ColRows()
	fanIn := c.Shape.ColRows()
	fanOut := c.OutC * c.Shape.KH * c.Shape.KW
	glorotUniform(rng, params[:nw], fanIn, fanOut)
	for i := nw; i < len(params); i++ {
		params[i] = 0
	}
}
