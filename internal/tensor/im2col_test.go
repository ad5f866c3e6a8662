package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveConv computes a direct convolution for one output channel given
// kernel w laid out (InC, KH, KW) row-major.
func naiveConv(s ConvShape, input, w []float64) []float64 {
	oh, ow := s.OutH(), s.OutW()
	out := make([]float64, oh*ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			var sum float64
			for c := 0; c < s.InC; c++ {
				for ky := 0; ky < s.KH; ky++ {
					iy := oy*s.Stride + ky - s.Pad
					if iy < 0 || iy >= s.InH {
						continue
					}
					for kx := 0; kx < s.KW; kx++ {
						ix := ox*s.Stride + kx - s.Pad
						if ix < 0 || ix >= s.InW {
							continue
						}
						sum += input[c*s.InH*s.InW+iy*s.InW+ix] *
							w[c*s.KH*s.KW+ky*s.KW+kx]
					}
				}
			}
			out[oy*ow+ox] = sum
		}
	}
	return out
}

func TestConvShapeDims(t *testing.T) {
	s := ConvShape{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 2}
	if s.OutH() != 28 || s.OutW() != 28 {
		t.Fatalf("same-padding 28x28 conv should keep dims, got %dx%d", s.OutH(), s.OutW())
	}
	v := ConvShape{InC: 3, InH: 10, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 0}
	if v.OutH() != 8 || v.OutW() != 6 {
		t.Fatalf("valid conv dims wrong: %dx%d", v.OutH(), v.OutW())
	}
	if v.ColRows() != 27 || v.ColCols() != 48 {
		t.Fatalf("col dims wrong: %dx%d", v.ColRows(), v.ColCols())
	}
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []ConvShape{
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 2, Pad: 2},
	}
	for _, s := range shapes {
		input := make([]float64, s.InC*s.InH*s.InW)
		for i := range input {
			input[i] = rng.NormFloat64()
		}
		w := make([]float64, s.ColRows())
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		col := make([]float64, s.ColRows()*s.ColCols())
		Im2Col(s, input, col)
		// GEMM with a single output channel == w^T · col.
		wm := MatOf(1, s.ColRows(), w)
		cm := MatOf(s.ColRows(), s.ColCols(), col)
		om := MatOf(1, s.ColCols(), make([]float64, s.ColCols()))
		GemmNN(1, wm, cm, 0, om)
		want := naiveConv(s, input, w)
		for i := range want {
			if math.Abs(om.Data[i]-want[i]) > 1e-10 {
				t.Fatalf("shape %+v: conv mismatch at %d: %v vs %v", s, i, om.Data[i], want[i])
			}
		}
	}
}

// Adjoint test: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y; this is the
// defining property of the transpose operator and validates backprop.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := ConvShape{InC: 2, InH: 6, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}
	nIn := s.InC * s.InH * s.InW
	nCol := s.ColRows() * s.ColCols()
	x := make([]float64, nIn)
	y := make([]float64, nCol)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	colX := make([]float64, nCol)
	Im2Col(s, x, colX)
	var lhs float64
	for i := range y {
		lhs += colX[i] * y[i]
	}
	backY := make([]float64, nIn)
	Col2Im(s, y, backY)
	var rhs float64
	for i := range x {
		rhs += x[i] * backY[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	s := ConvShape{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	col := make([]float64, s.ColRows()*s.ColCols())
	for i := range col {
		col[i] = 1
	}
	d := make([]float64, 9)
	Col2Im(s, col, d)
	Col2Im(s, col, d) // second call must add, not overwrite
	// Center pixel (1,1) is touched by all 4 windows × all 4 taps that
	// align — for 2x2 kernel on 3x3 valid conv the center appears in 4
	// (window, tap) pairs; doubled by the second call → 8.
	if d[4] != 8 {
		t.Fatalf("accumulation wrong: center=%v, want 8", d[4])
	}
}

// TestIm2ColCol2ImMatchReference holds the contiguous-run kernels to the
// per-element reference bodies by math.Float64bits: over 3000 random
// shapes (every one NewConv2D would accept), padding as wide as or wider
// than the kernel and the input, and 1×1 inputs. The explicit shapes also
// hold Im2Col's one-run path (stride 1, OutW == InW) at both paper
// convolutions, with KH ≠ KW (so OutH ≠ InH), with padding wider than the
// input, and with several channels, where a run clipped one element late
// would read the next channel's plane. Im2Col writes into a destination
// full of garbage, so a missed zeroing shows; Col2Im adds onto a non-zero
// dInput, so a reordered or dropped term shows.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []ConvShape{
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 2, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 1, InW: 1, KH: 5, KW: 5, Stride: 3, Pad: 4},
		{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 3},
		{InC: 3, InH: 2, InW: 9, KH: 5, KW: 1, Stride: 2, Pad: 4},
		{InC: 1, InH: 4, InW: 2, KH: 1, KW: 3, Stride: 2, Pad: 4},
		{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 4, InH: 14, InW: 14, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 6, InW: 7, KH: 3, KW: 5, Stride: 1, Pad: 2},
		{InC: 3, InH: 5, InW: 4, KH: 7, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 2, InW: 2, KH: 7, KW: 7, Stride: 1, Pad: 3},
		{InC: 3, InH: 3, InW: 1, KH: 9, KW: 9, Stride: 1, Pad: 4},
		{InC: 2, InH: 4, InW: 3, KH: 1, KW: 7, Stride: 1, Pad: 3},
	}
	explicit := len(shapes)
	for len(shapes) < 3000+explicit {
		s := ConvShape{InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(9), InW: 1 + rng.Intn(9),
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), Pad: rng.Intn(5)}
		if s.OutH() > 0 && s.OutW() > 0 {
			shapes = append(shapes, s)
		}
	}
	// Col2Im's sums get no NaN and no −Inf: once two NaNs with different
	// payloads meet (+Inf + −Inf makes a second one), which payload an add
	// keeps depends on the operand order the compiler picks.
	sumSpecials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64, -1e300}
	copySpecials := append([]float64{math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0123)},
		sumSpecials...)
	fill := func(v, specials []float64) {
		for i := range v {
			if rng.Intn(16) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	same := func(what string, s ConvShape, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %+v: element %d = %v, reference %v", what, s, i, got[i], want[i])
			}
		}
	}
	for _, s := range shapes {
		nIn, nCol := s.InC*s.InH*s.InW, s.ColRows()*s.ColCols()
		input := make([]float64, nIn)
		fill(input, copySpecials)
		got, want := make([]float64, nCol), make([]float64, nCol)
		for i := range got {
			got[i] = math.Float64frombits(0x7ff4_dead_beef_0000 | uint64(i))
		}
		Im2Col(s, input, got)
		refIm2Col(s, input, want)
		same("Im2Col", s, got, want)

		col := make([]float64, nCol)
		fill(col, sumSpecials)
		dGot, dWant := make([]float64, nIn), make([]float64, nIn)
		fill(dGot, sumSpecials)
		copy(dWant, dGot)
		Col2Im(s, col, dGot)
		refCol2Im(s, col, dWant)
		same("Col2Im", s, dGot, dWant)
	}
}

// TestCol2ImEdgeCases holds Col2Im to the per-element reference on both
// kernel sets where the vector adds could part from it: sums that meet
// two NaNs of different payloads (dInput's must survive, as in Go's
// dInput[i] += term), signalling NaNs, −0 terms onto −0 and +0, and ±Inf.
// The shapes take the stride-1 kernel at both paper convolutions and at
// run lengths of every residue mod 4, the Go loop at stride 2, and
// padding wider than the kernel, where some kernel columns reach no
// input column at all (an empty validCols run). The race detector's
// build may swap the Go loop's operands, so there the Go loop's NaNs
// compare as one value; the kernel's payloads are compared in every
// build.
func TestCol2ImEdgeCases(t *testing.T) {
	shapes := []ConvShape{
		conv1Shape,
		conv2Shape,
		{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 1, InH: 7, InW: 7, KH: 3, KW: 5, Stride: 1, Pad: 0},
		{InC: 3, InH: 4, InW: 9, KH: 2, KW: 2, Stride: 1, Pad: 0},
		{InC: 2, InH: 7, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 3},
		{InC: 2, InH: 2, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 4},
		{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 2, Pad: 3},
	}
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0123), math.Float64frombits(0xfff8_0000_0000_4567),
		math.Float64frombits(0x7ff4_0000_0000_0089), // signalling
		0, math.Copysign(0, -1), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	}
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		fill := func(v []float64) {
			for i := range v {
				if rng.Intn(3) == 0 {
					v[i] = rng.NormFloat64()
				} else {
					v[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		for _, s := range shapes {
			col := make([]float64, s.ColRows()*s.ColCols())
			fill(col)
			got := make([]float64, s.InC*s.InH*s.InW)
			fill(got)
			want := append([]float64(nil), got...)
			Col2Im(s, col, got)
			refCol2Im(s, col, want)
			if raceBuild && !(simdEnabled && s.Stride == 1) {
				for i := range got {
					if got[i] != got[i] && want[i] != want[i] {
						got[i], want[i] = math.NaN(), math.NaN()
					}
				}
			}
			sameBits(t, fmt.Sprintf("Col2Im %+v", s), got, want)
		}
	})
}

// conv1 and conv2 are the paper CNN's two convolution shapes, conv2 at the
// thin network's 4 input channels.
var (
	conv1Shape = ConvShape{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 2}
	conv2Shape = ConvShape{InC: 4, InH: 14, InW: 14, KH: 5, KW: 5, Stride: 1, Pad: 2}
)

func benchIm2Col(b *testing.B, s ConvShape) {
	input := make([]float64, s.InC*s.InH*s.InW)
	col := make([]float64, s.ColRows()*s.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(s, input, col)
	}
}

func benchCol2Im(b *testing.B, s ConvShape) {
	dInput := make([]float64, s.InC*s.InH*s.InW)
	col := make([]float64, s.ColRows()*s.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(s, col, dInput)
	}
}

// BenchmarkIm2Col28x28k5 is conv1's im2col at the paper CNN's shape.
func BenchmarkIm2Col28x28k5(b *testing.B) { benchIm2Col(b, conv1Shape) }

// BenchmarkCol2Im28x28k5 is conv1's input-gradient scatter at the paper
// CNN's shape, the adjoint of BenchmarkIm2Col28x28k5.
func BenchmarkCol2Im28x28k5(b *testing.B) { benchCol2Im(b, conv1Shape) }

// BenchmarkIm2Col14x14c4k5 is conv2's im2col in the thin paper CNN.
func BenchmarkIm2Col14x14c4k5(b *testing.B) { benchIm2Col(b, conv2Shape) }

// BenchmarkCol2Im14x14c4k5 is conv2's input-gradient scatter in the thin
// paper CNN.
func BenchmarkCol2Im14x14c4k5(b *testing.B) { benchCol2Im(b, conv2Shape) }
