package tensor

import (
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

func BenchmarkIm2Col28x28k5(b *testing.B) {
	s := ConvShape{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 2}
	input := make([]float64, s.InC*s.InH*s.InW)
	col := make([]float64, s.ColRows()*s.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(s, input, col)
	}
}
