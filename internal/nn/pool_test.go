package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedproxvr/internal/tensor"
	"fedproxvr/internal/testx"
)

// poolOver builds the fused layer over a c×h×w volume, behind a 1×1
// convolution with that output.
func poolOver(c, h, w, k int) *ReLUMaxPool {
	return NewReLUMaxPool(NewConv2D(tensor.ConvShape{InC: 1, InH: h, InW: w, KH: 1, KW: 1, Stride: 1}, c), k)
}

// refMaxPool is the max-pool layer the fused one replaced, kept as its
// reference: the same window scan (the first strict maximum wins, starting
// from the window's first input) and the same backward (clear, then
// scatter-add each output gradient to its argmax). Run after ReLU it is
// the CNN's former ReLU, MaxPool2D pair.
type refMaxPool struct {
	C, H, W, K int
}

func (p refMaxPool) forward(in, out []float64, argmax []int) {
	oh, ow := p.H/p.K, p.W/p.K
	oi := 0
	for c := 0; c < p.C; c++ {
		base := c * p.H * p.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + (oy*p.K)*p.W + ox*p.K
				best := in[bestIdx]
				for ky := 0; ky < p.K; ky++ {
					rowBase := base + (oy*p.K+ky)*p.W + ox*p.K
					for kx := 0; kx < p.K; kx++ {
						if v := in[rowBase+kx]; v > best {
							best, bestIdx = v, rowBase+kx
						}
					}
				}
				out[oi] = best
				argmax[oi] = bestIdx
				oi++
			}
		}
	}
}

func (p refMaxPool) backward(argmax []int, dOut, dIn []float64) {
	for i := range dIn {
		dIn[i] = 0
	}
	for oi, ii := range argmax {
		dIn[ii] += dOut[oi]
	}
}

// poolSpecials are the inputs and output gradients the oracle mixes in:
// NaNs with two payloads, ±0, ±Inf, subnormals, extremes and repeated
// values that tie.
var poolSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0042), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, 1, 2, -1,
}

// poolNonPositive are the inputs a rectified-to-+0 window is drawn from.
var poolNonPositive = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0042), 0, math.Copysign(0, -1),
	math.Inf(-1), -math.SmallestNonzeroFloat64, -1, -0.5,
}

// TestReLUMaxPoolMatchesReference holds the fused layer to the ReLU layer
// followed by refMaxPool, bit for bit: forward values, the argmax routing
// (the offset in the window of the reference's argmax where its input was
// positive, −1 where the window was rectified to +0), and the backward dX,
// which starts as NaN garbage so an unwritten element fails. Inputs mix
// poolSpecials and normals, every fifth window has no positive input, and
// the output gradients carry the specials too; K ∈ {1, 2, 3} (K = 2 is
// pool2Row's path, the others the generic scan), b ∈ {1, 7}, at GOMAXPROCS
// 1 and 2 (b = 7 is large enough to fan out over samples).
func TestReLUMaxPoolMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const c, h, w = 5, 48, 48
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []int{1, 2, 3} {
			for _, b := range []int{1, 7} {
				checkReLUMaxPool(t, c, h, w, k, b, rand.New(rand.NewSource(int64(10*k+b))))
			}
		}
	}
}

func checkReLUMaxPool(t *testing.T, c, h, w, k, b int, rng *rand.Rand) {
	t.Helper()
	p := poolOver(c, h, w, k)
	inN, outN := p.InSize(), p.OutSize()
	x := make([]float64, b*inN)
	for s := 0; s < b; s++ {
		for o := 0; o < outN; o++ {
			first := o/(w/k)*k*w + o%(w/k)*k
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					v := rng.NormFloat64()
					switch {
					case o%5 == 0:
						v = poolNonPositive[rng.Intn(len(poolNonPositive))]
					case rng.Intn(3) > 0:
						v = poolSpecials[rng.Intn(len(poolSpecials))]
					}
					x[s*inN+first+ky*w+kx] = v
				}
			}
		}
	}
	dY := make([]float64, b*outN)
	for i := range dY {
		dY[i] = rng.NormFloat64()
		if rng.Intn(2) == 0 {
			dY[i] = poolSpecials[rng.Intn(len(poolSpecials))]
		}
	}

	relu := testx.NewReLU(inN)
	rc := relu.NewCache(b)
	rect := make([]float64, b*inN)
	relu.Forward(nil, x, rect, b, rc)
	ref := refMaxPool{c, h, w, k}
	wantY, wantArg := make([]float64, b*outN), make([]int, b*outN)
	dRect, wantDX := make([]float64, b*inN), make([]float64, b*inN)
	for s := 0; s < b; s++ {
		ref.forward(rect[s*inN:(s+1)*inN], wantY[s*outN:(s+1)*outN], wantArg[s*outN:(s+1)*outN])
		ref.backward(wantArg[s*outN:(s+1)*outN], dY[s*outN:(s+1)*outN], dRect[s*inN:(s+1)*inN])
	}
	relu.Backward(nil, dRect, wantDX, nil, b, rc)

	cache := p.NewCache(b)
	y, dX := make([]float64, b*outN), make([]float64, b*inN)
	for i := range dX {
		dX[i] = math.NaN()
	}
	p.Forward(nil, x, y, b, cache)
	p.Backward(nil, dY, dX, nil, b, cache)
	args := cache.(*reluPoolCache).argmax
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("K=%d b=%d out %d: %v, reference %v", k, b, i, y[i], wantY[i])
		}
		s, o := i/outN, i%outN
		rel := wantArg[i] - (o/(w/k)*k*w + o%(w/k)*k) // from the window's first input
		want := int32(rel/w*k + rel%w)
		if !(x[s*inN+wantArg[i]] > 0) {
			want = -1
		}
		if args[i] != want {
			t.Fatalf("K=%d b=%d out %d: argmax %d, reference %d", k, b, i, args[i], want)
		}
	}
	for i := range dX {
		if math.Float64bits(dX[i]) != math.Float64bits(wantDX[i]) {
			t.Fatalf("K=%d b=%d dX[%d] (x=%v): %v, reference %v", k, b, i, x[i], dX[i], wantDX[i])
		}
	}
}

// BenchmarkReLUMaxPool4x28x28B8 measures the fused layer's forward and
// backward over conv1's output in the thin paper CNN (4 channels of
// 28×28) at the inner loop's batch of 8.
func BenchmarkReLUMaxPool4x28x28B8(b *testing.B) {
	const batch = 8
	p := poolOver(4, 28, 28, 2)
	rng := rand.New(rand.NewSource(1))
	x, dY := make([]float64, batch*p.InSize()), make([]float64, batch*p.OutSize())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range dY {
		dY[i] = rng.NormFloat64()
	}
	y, dX := make([]float64, len(dY)), make([]float64, len(x))
	cache := p.NewCache(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(nil, x, y, batch, cache)
		p.Backward(nil, dY, dX, nil, batch, cache)
	}
}
