package nn

import (
	"math/rand"

	"fedproxvr/internal/randx"
)

// Dropout zeroes each activation independently with probability Rate
// during training and scales the survivors by 1/(1−Rate) (inverted
// dropout), so evaluation needs no rescaling. Call SetTraining(false) to
// turn the layer into an identity for evaluation.
//
// The mask stream is owned by the layer's cache, seeded from Seed, so
// concurrent workspaces draw independent, reproducible masks. Batched
// forwards draw the mask row by row in sample order — the stream consumed
// by a batch of b equals b consecutive per-sample draws.
type Dropout struct {
	Size int
	Rate float64
	Seed int64

	training bool
}

// NewDropout constructs a dropout layer. Rate must be in [0, 1).
func NewDropout(size int, rate float64, seed int64) *Dropout {
	if size <= 0 {
		panic("nn: Dropout size must be positive")
	}
	if rate < 0 || rate >= 1 {
		panic("nn: Dropout rate must be in [0, 1)")
	}
	return &Dropout{Size: size, Rate: rate, Seed: seed, training: true}
}

// SetTraining toggles mask sampling; false makes the layer an identity.
func (d *Dropout) SetTraining(train bool) { d.training = train }

// Training reports the current mode.
func (d *Dropout) Training() bool { return d.training }

// InSize implements Layer.
func (d *Dropout) InSize() int { return d.Size }

// OutSize implements Layer.
func (d *Dropout) OutSize() int { return d.Size }

// NumParams implements Layer.
func (d *Dropout) NumParams() int { return 0 }

type dropoutCache struct {
	keep []bool // maxBatch×Size
	rng  *rand.Rand
}

// NewCache implements Layer.
func (d *Dropout) NewCache(maxBatch int) Cache {
	return &dropoutCache{keep: make([]bool, maxBatch*d.Size), rng: randx.New(d.Seed)}
}

// Forward implements Layer. Mask draws are sequential over the flat
// b×Size batch, preserving the per-sample RNG stream.
func (d *Dropout) Forward(params, x, y []float64, b int, cache Cache) {
	c := cache.(*dropoutCache)
	keep := c.keep[:b*d.Size]
	if !d.training || d.Rate == 0 {
		copy(y, x)
		for i := range keep {
			keep[i] = true
		}
		return
	}
	scale := 1 / (1 - d.Rate)
	for i, v := range x {
		if c.rng.Float64() < d.Rate {
			keep[i] = false
			y[i] = 0
		} else {
			keep[i] = true
			y[i] = v * scale
		}
	}
}

// Backward implements Layer: gradients flow only through kept units, with
// the same 1/(1−Rate) scale.
func (d *Dropout) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	if dX == nil {
		return
	}
	c := cache.(*dropoutCache)
	if !d.training || d.Rate == 0 {
		copy(dX, dY)
		return
	}
	scale := 1 / (1 - d.Rate)
	for i, keep := range c.keep[:b*d.Size] {
		if keep {
			dX[i] = dY[i] * scale
		} else {
			dX[i] = 0
		}
	}
}

// AvgPool2D is channels-first average pooling with square window and
// stride equal to the window.
type AvgPool2D struct {
	C, H, W int
	K       int
}

// NewAvgPool2D constructs an average-pooling layer; H and W must be
// divisible by k.
func NewAvgPool2D(c, h, w, k int) *AvgPool2D {
	if k <= 0 || h%k != 0 || w%k != 0 {
		panic("nn: AvgPool2D window must divide input dims")
	}
	return &AvgPool2D{C: c, H: h, W: w, K: k}
}

// InSize implements Layer.
func (p *AvgPool2D) InSize() int { return p.C * p.H * p.W }

// OutSize implements Layer.
func (p *AvgPool2D) OutSize() int { return p.C * (p.H / p.K) * (p.W / p.K) }

// NumParams implements Layer.
func (p *AvgPool2D) NumParams() int { return 0 }

// NewCache implements Layer (no scratch needed).
func (p *AvgPool2D) NewCache(maxBatch int) Cache { return nil }

// Forward implements Layer, looping samples in ascending order.
func (p *AvgPool2D) Forward(params, x, y []float64, b int, cache Cache) {
	inN, outN := p.InSize(), p.OutSize()
	oh, ow := p.H/p.K, p.W/p.K
	inv := 1 / float64(p.K*p.K)
	for s := 0; s < b; s++ {
		in := x[s*inN : (s+1)*inN]
		out := y[s*outN : (s+1)*outN]
		oi := 0
		for c := 0; c < p.C; c++ {
			base := c * p.H * p.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float64
					for ky := 0; ky < p.K; ky++ {
						rowBase := base + (oy*p.K+ky)*p.W + ox*p.K
						for kx := 0; kx < p.K; kx++ {
							sum += in[rowBase+kx]
						}
					}
					out[oi] = sum * inv
					oi++
				}
			}
		}
	}
}

// Backward implements Layer: each input receives dOut/(K²) of its window.
func (p *AvgPool2D) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	if dX == nil {
		return
	}
	inN, outN := p.InSize(), p.OutSize()
	oh, ow := p.H/p.K, p.W/p.K
	inv := 1 / float64(p.K*p.K)
	for i := range dX[:b*inN] {
		dX[i] = 0
	}
	for s := 0; s < b; s++ {
		dIn := dX[s*inN : (s+1)*inN]
		dOut := dY[s*outN : (s+1)*outN]
		oi := 0
		for c := 0; c < p.C; c++ {
			base := c * p.H * p.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dOut[oi] * inv
					oi++
					for ky := 0; ky < p.K; ky++ {
						rowBase := base + (oy*p.K+ky)*p.W + ox*p.K
						for kx := 0; kx < p.K; kx++ {
							dIn[rowBase+kx] += g
						}
					}
				}
			}
		}
	}
}
