package nn

import "math"

// ReLU is the element-wise rectifier max(0, x). It has no parameters; the
// batched forward/backward is one flat vectorized sweep over b×Size values.
type ReLU struct {
	Size int
}

// NewReLU constructs a ReLU over vectors of the given size.
func NewReLU(size int) *ReLU {
	if size <= 0 {
		panic("nn: ReLU size must be positive")
	}
	return &ReLU{Size: size}
}

// InSize implements Layer.
func (r *ReLU) InSize() int { return r.Size }

// OutSize implements Layer.
func (r *ReLU) OutSize() int { return r.Size }

// NumParams implements Layer.
func (r *ReLU) NumParams() int { return 0 }

type reluCache struct {
	// mask is 1 where input > 0, else 0; maxBatch×Size. One byte per
	// element: a word-wide mask would make the cache 8× larger.
	mask []uint8
}

// NewCache implements Layer.
func (r *ReLU) NewCache(maxBatch int) Cache {
	return &reluCache{mask: make([]uint8, maxBatch*r.Size)}
}

// keep returns v where m is 1 and +0 where m is 0, by masking v's bits
// with −m (all ones or all zeros) instead of branching on the data.
func keep(v float64, m uint8) float64 {
	return math.Float64frombits(math.Float64bits(v) & -uint64(m))
}

// Forward implements Layer without a data-dependent branch: y = v where
// v > 0, else +0 (so NaN and −0 give +0 and +Inf passes).
func (r *ReLU) Forward(params, x, y []float64, b int, cache Cache) {
	c := cache.(*reluCache)
	mask := c.mask[:b*r.Size]
	x, y = x[:len(mask)], y[:len(mask)]
	for i, v := range x {
		var m uint8
		if v > 0 { // compiles to a SETcc, not a jump
			m = 1
		}
		mask[i] = m
		y[i] = keep(v, m)
	}
}

// Backward implements Layer: dX = dY where the input was positive, else +0.
func (r *ReLU) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	if dX == nil {
		return
	}
	c := cache.(*reluCache)
	mask := c.mask[:b*r.Size]
	dY, dX = dY[:len(mask)], dX[:len(mask)]
	for i, m := range mask {
		dX[i] = keep(dY[i], m)
	}
}

// Tanh is the element-wise hyperbolic tangent; used by the MLP variants.
type Tanh struct {
	Size int
}

// NewTanh constructs a Tanh layer.
func NewTanh(size int) *Tanh {
	if size <= 0 {
		panic("nn: Tanh size must be positive")
	}
	return &Tanh{Size: size}
}

// InSize implements Layer.
func (t *Tanh) InSize() int { return t.Size }

// OutSize implements Layer.
func (t *Tanh) OutSize() int { return t.Size }

// NumParams implements Layer.
func (t *Tanh) NumParams() int { return 0 }

type tanhCache struct {
	out []float64 // maxBatch×Size
}

// NewCache implements Layer.
func (t *Tanh) NewCache(maxBatch int) Cache {
	return &tanhCache{out: make([]float64, maxBatch*t.Size)}
}

// Forward implements Layer.
func (t *Tanh) Forward(params, x, y []float64, b int, cache Cache) {
	c := cache.(*tanhCache)
	out := c.out[:b*t.Size]
	for i, v := range x {
		y[i] = math.Tanh(v)
		out[i] = y[i]
	}
}

// Backward implements Layer: d tanh = 1 - tanh².
func (t *Tanh) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	if dX == nil {
		return
	}
	c := cache.(*tanhCache)
	out := c.out[:b*t.Size]
	for i, y := range out {
		dX[i] = dY[i] * (1 - y*y)
	}
}
