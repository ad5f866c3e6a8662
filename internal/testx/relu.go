package testx

import "math"

// ReLU is the element-wise rectifier max(0, x) as an nn.Layer (nn.Cache is
// an alias of any, so this package need not import nn). It has no
// parameters; the batched forward/backward is one flat sweep over b×Size
// values. The paper CNN applies its ReLUs fused into nn.ReLUMaxPool, so
// this layer serves the tests: the hidden activation of the MLP that the
// NN model tests and benchmarks train, and with refMaxPool the reference
// that nn.ReLUMaxPool is held to.
type ReLU struct {
	Size int
}

// NewReLU constructs a ReLU over vectors of the given size.
func NewReLU(size int) *ReLU {
	if size <= 0 {
		panic("testx: ReLU size must be positive")
	}
	return &ReLU{Size: size}
}

// InSize implements nn.Layer.
func (r *ReLU) InSize() int { return r.Size }

// OutSize implements nn.Layer.
func (r *ReLU) OutSize() int { return r.Size }

// NumParams implements nn.Layer.
func (r *ReLU) NumParams() int { return 0 }

// ReLUCache is the ReLU's scratch.
type ReLUCache struct {
	// Mask is 1 where input > 0, else 0; maxBatch×Size. One byte per
	// element: a word-wide mask would make the cache 8× larger.
	Mask []uint8
}

// NewCache implements nn.Layer.
func (r *ReLU) NewCache(maxBatch int) any {
	return &ReLUCache{Mask: make([]uint8, maxBatch*r.Size)}
}

// keep returns v where m is 1 and +0 where m is 0, by masking v's bits
// with −m (all ones or all zeros) instead of branching on the data.
func keep(v float64, m uint8) float64 {
	return math.Float64frombits(math.Float64bits(v) & -uint64(m))
}

// Forward implements nn.Layer without a data-dependent branch: y = v where
// v > 0, else +0 (so NaN and −0 give +0 and +Inf passes).
func (r *ReLU) Forward(params, x, y []float64, b int, cache any) {
	c := cache.(*ReLUCache)
	mask := c.Mask[:b*r.Size]
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

// Backward implements nn.Layer: dX = dY where the input was positive, else
// +0.
func (r *ReLU) Backward(params, dY, dX, dParams []float64, b int, cache any) {
	if dX == nil {
		return
	}
	c := cache.(*ReLUCache)
	mask := c.Mask[:b*r.Size]
	dY, dX = dY[:len(mask)], dX[:len(mask)]
	for i, m := range mask {
		dX[i] = keep(dY[i], m)
	}
}
