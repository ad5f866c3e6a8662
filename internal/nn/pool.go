package nn

import (
	"math"

	"fedproxvr/internal/tensor"
)

// ReLUMaxPool is the rectifier max(0, x) followed by a channels-first max
// pooling with a 2×2 window and stride 2, fused into one layer: the
// paper's CNN applies both after each convolution. Fusing them keeps no
// rectified activation, its gradient or a ReLU mask; the pool reads the
// convolution's output once and its backward writes the convolution's
// output gradient once.
//
// The results are those of a ReLU layer followed by a max-pool layer, bit
// for bit: each input is rectified as ReLU does (v where v > 0, else +0, so
// NaN and −0 give +0), each window's output is the first strict maximum of
// its rectified inputs in (ky, kx) order, and the backward hands 0 + dOut
// to that input and +0 to every other one, so −0 comes back as +0 and a
// window with no positive input passes no gradient.
type ReLUMaxPool struct {
	C, H, W int // input volume: the output of the convolution it follows
}

// NewReLUMaxPool constructs the fused layer over the output volume of conv,
// whose height and width must be even.
func NewReLUMaxPool(conv *Conv2D) *ReLUMaxPool {
	c, h, w := conv.OutC, conv.Shape.InH, conv.Shape.InW
	if h%2 != 0 || w%2 != 0 {
		panic("nn: ReLUMaxPool window must divide the convolution's output dims")
	}
	return &ReLUMaxPool{C: c, H: h, W: w}
}

// InSize implements Layer.
func (p *ReLUMaxPool) InSize() int { return p.C * p.H * p.W }

// OutSize implements Layer.
func (p *ReLUMaxPool) OutSize() int { return p.C * (p.H / 2) * (p.W / 2) }

// NumParams implements Layer.
func (p *ReLUMaxPool) NumParams() int { return 0 }

type reluPoolCache struct {
	layer *ReLUMaxPool
	// argmax is each window's winning input as its offset 2·ky + kx in
	// the window, or −1 where no input of the window was positive (its
	// output is +0 and it passes no gradient); maxBatch×OutSize.
	argmax []int32
	par    *tensor.Par

	x, y, dY, dX []float64
	b            int

	fwdBody, bwdBody func(lo, hi int)
}

// NewCache implements Layer.
func (p *ReLUMaxPool) NewCache(maxBatch int) Cache {
	pc := &reluPoolCache{layer: p, argmax: make([]int32, maxBatch*p.OutSize()), par: tensor.NewPar()}
	pc.fwdBody = pc.forwardSamples
	pc.bwdBody = pc.backwardSamples
	return pc
}

// keep returns v where m is 1 and +0 where m is 0, by masking v's bits
// with −m (all ones or all zeros) instead of branching on the data.
func keep(v float64, m uint8) float64 {
	return math.Float64frombits(math.Float64bits(v) & -uint64(m))
}

// rectBits returns the bits of v where v > 0 and 0 (the bits of +0)
// otherwise, keep(v, v > 0), without a branch. v > 0 exactly when its bits
// minus one lie below the bits of +Inf (±0, negatives and NaNs fall
// outside), and the compiler turns that unsigned compare into a CMOV. A
// rectified value is +0 or positive, never NaN, so its bits order as the
// value does: pool2Row compares and selects them as integers.
func rectBits(v float64) uint64 {
	b := math.Float64bits(v)
	var r uint64
	if b-1 < 0x7ff0_0000_0000_0000 {
		r = b
	}
	return r
}

// forwardSamples pools samples [lo, hi), one row of windows at a time
// (pool2Row). Each window's output is the largest of its rectified inputs
// and its argmax the first input in (ky, kx) order that equals it — the
// first strict maximum of a scan — or −1 where that maximum is +0.
func (pc *reluPoolCache) forwardSamples(lo, hi int) {
	p := pc.layer
	inN, outN := p.InSize(), p.OutSize()
	w, ow := p.W, p.W/2
	for s := lo; s < hi; s++ {
		in := pc.x[s*inN : (s+1)*inN]
		out := pc.y[s*outN : (s+1)*outN]
		argmax := pc.argmax[s*outN : (s+1)*outN]
		for o0 := 0; o0 < outN; o0 += ow {
			top := 4 * o0 // the row of windows' first input
			pool2Row(in[top:top+w], in[top+w:top+2*w], out[o0:o0+ow], argmax[o0:o0+ow])
		}
	}
}

// pool2Row pools one row of 2×2 windows over the input rows r0 and r1 as a
// tree: the first strict maximum is the top pair's unless the bottom
// pair's is greater, and within a pair the left input's unless the right
// one is greater.
func pool2Row(r0, r1 []float64, outs []float64, args []int32) {
	r0, r1 = r0[:2*len(outs)], r1[:2*len(outs)]
	for ox := range outs {
		a, b := rectBits(r0[2*ox]), rectBits(r0[2*ox+1])
		c, d := rectBits(r1[2*ox]), rectBits(r1[2*ox+1])
		ab, cd := max(a, b), max(c, d)
		best := max(ab, cd)
		row := bit(cd > ab)                              // 1 for the bottom pair
		col := bit(b > a) ^ (bit(b > a)^bit(d > c))&-row // 1 for the pair's right input
		outs[ox] = math.Float64frombits(best)
		args[ox] = (2*row + col) | -bit(best == 0)
	}
}

// backwardSamples writes dX for samples [lo, hi) densely, one row of
// windows at a time (unpool2Row): 0 + dOut at each window's argmax and +0
// at its other inputs.
func (pc *reluPoolCache) backwardSamples(lo, hi int) {
	p := pc.layer
	inN, outN := p.InSize(), p.OutSize()
	w, ow := p.W, p.W/2
	for s := lo; s < hi; s++ {
		dIn := pc.dX[s*inN : (s+1)*inN]
		dOut := pc.dY[s*outN : (s+1)*outN]
		argmax := pc.argmax[s*outN : (s+1)*outN]
		for o0 := 0; o0 < outN; o0 += ow {
			top := 4 * o0
			unpool2Row(dIn[top:top+w], dIn[top+w:top+2*w], dOut[o0:o0+ow], argmax[o0:o0+ow])
		}
	}
}

// unpool2Row is backwardSamples for one row of 2×2 windows.
func unpool2Row(d0, d1 []float64, gs []float64, args []int32) {
	d0, d1 = d0[:2*len(gs)], d1[:2*len(gs)]
	for ox, g := range gs {
		g = 0 + g
		at := args[ox]
		d0[2*ox], d0[2*ox+1] = keep(g, eq(at, 0)), keep(g, eq(at, 1))
		d1[2*ox], d1[2*ox+1] = keep(g, eq(at, 2)), keep(g, eq(at, 3))
	}
}

// bit is 1 where cond holds and 0 otherwise, set without a branch.
func bit(cond bool) int32 {
	var b int32
	if cond { // compiles to a SETcc, not a jump
		b = 1
	}
	return b
}

// eq is keep's mask for a == b: 1 where it holds, 0 otherwise.
func eq(a, b int32) uint8 { return uint8(bit(a == b)) }

// Forward implements Layer, fanned out over samples.
func (p *ReLUMaxPool) Forward(params, x, y []float64, b int, cache Cache) {
	pc := cache.(*reluPoolCache)
	pc.x, pc.y, pc.b = x, y, b
	pc.par.Run(b, 1, b*p.InSize(), pc.fwdBody)
}

// Backward implements Layer: each window's output gradient goes to its
// argmax input, if it has one.
func (p *ReLUMaxPool) Backward(params, dY, dX, dParams []float64, b int, cache Cache) {
	pc := cache.(*reluPoolCache)
	if b != pc.b {
		panic("nn: ReLUMaxPool Backward batch differs from last Forward")
	}
	if dX == nil {
		return
	}
	pc.dY, pc.dX = dY, dX
	pc.par.Run(b, 1, b*p.InSize(), pc.bwdBody)
}
