package nn

import (
	"math/rand"

	"fedproxvr/internal/tensor"
)

// Dense is a fully-connected layer: Y = X·Wᵀ + 1·bᵀ, with W stored
// row-major (Out×In) followed by b (Out) in the layer's parameter view.
// The whole batch is one blocked GEMM per direction.
type Dense struct {
	In, Out int
}

// NewDense constructs a Dense layer.
func NewDense(in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic("nn: Dense dims must be positive")
	}
	return &Dense{In: in, Out: out}
}

// InSize implements Layer.
func (d *Dense) InSize() int { return d.In }

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.Out }

// NumParams implements Layer.
func (d *Dense) NumParams() int { return d.Out*d.In + d.Out }

type denseCache struct {
	x   []float64 // copy of the forward input, maxBatch×In
	b   int       // batch size of the last Forward
	par *tensor.Par
}

// NewCache implements Layer.
func (d *Dense) NewCache(maxBatch int) Cache {
	return &denseCache{x: make([]float64, maxBatch*d.In), par: tensor.NewPar()}
}

// Forward implements Layer: Y = X·Wᵀ, rows biased by b.
func (d *Dense) Forward(params, x, y []float64, b int, cache Cache) {
	c := cache.(*denseCache)
	copy(c.x[:b*d.In], x)
	c.b = b
	w := tensor.MatOf(d.Out, d.In, params[:d.Out*d.In])
	bias := params[d.Out*d.In:]
	ym := tensor.MatOf(b, d.Out, y)
	c.par.GemmNT(1, tensor.MatOf(b, d.In, c.x[:b*d.In]), w, 0, ym)
	tensor.AddRowVec(ym, bias)
}

// Backward implements Layer:
//
//	dW += dYᵀ·X,   db += Σ_rows dY,   dX = dY·W (skipped when dX is nil).
//
// All three reduce over the batch in ascending sample order.
func (d *Dense) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	c := cache.(*denseCache)
	if b != c.b {
		panic("nn: Dense Backward batch differs from last Forward")
	}
	w := tensor.MatOf(d.Out, d.In, params[:d.Out*d.In])
	dw := tensor.MatOf(d.Out, d.In, dParams[:d.Out*d.In])
	db := dParams[d.Out*d.In:]
	dym := tensor.MatOf(b, d.Out, dY)
	xm := tensor.MatOf(b, d.In, c.x[:b*d.In])
	c.par.GemmTN(1, dym, xm, 1, dw)
	tensor.ColSumsAcc(db, dym)
	if dX != nil {
		c.par.GemmNN(1, dym, w, 0, tensor.MatOf(b, d.In, dX))
	}
}

// Init implements Initializer: Glorot-uniform W, zero b.
func (d *Dense) Init(rng *rand.Rand, params []float64) {
	glorotUniform(rng, params[:d.Out*d.In], d.In, d.Out)
	for i := d.Out * d.In; i < len(params); i++ {
		params[i] = 0
	}
}
