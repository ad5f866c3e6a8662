package nn

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"fedproxvr/internal/testx"
)

// TestReLUMatchesBranchyReference holds the branch-free ReLU (testx.ReLU,
// the MLP's activation and part of the fused pool's reference) to the
// if/else bodies it replaced (y = v if v > 0 else 0; dX = dY if the input
// was > 0 else 0), bit for bit, over every pairing of NaN, ±0, ±Inf,
// subnormal and extreme inputs and upstream gradients plus random values,
// and pins the mask at one byte per element.
func TestReLUMatchesBranchyReference(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8_0000_0000_0042), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
	}
	const size, b = 100, 2
	rng := rand.New(rand.NewSource(15))
	x, dY := make([]float64, size*b), make([]float64, size*b)
	for i := range x {
		if p := len(specials) * len(specials); i < p {
			x[i], dY[i] = specials[i/len(specials)], specials[i%len(specials)]
		} else {
			x[i], dY[i] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	r := testx.NewReLU(size)
	cache := r.NewCache(b)
	y, dX := make([]float64, size*b), make([]float64, size*b)
	r.Forward(nil, x, y, b, cache)
	r.Backward(nil, dY, dX, nil, b, cache)
	for i, v := range x {
		var wantY, wantDX float64
		if v > 0 {
			wantY, wantDX = v, dY[i]
		}
		if math.Float64bits(y[i]) != math.Float64bits(wantY) {
			t.Fatalf("forward(%v) = %v, reference %v", v, y[i], wantY)
		}
		if math.Float64bits(dX[i]) != math.Float64bits(wantDX) {
			t.Fatalf("backward at x=%v, dY=%v: %v, reference %v", v, dY[i], dX[i], wantDX)
		}
	}
	if mask := cache.(*testx.ReLUCache).Mask; unsafe.Sizeof(mask[0]) != 1 || len(mask) != size*b {
		t.Fatalf("ReLU mask is %d bytes × %d elements, want 1 × %d", unsafe.Sizeof(mask[0]), len(mask), size*b)
	}
}
