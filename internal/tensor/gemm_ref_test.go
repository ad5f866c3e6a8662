package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the one-row-block GEMM bodies the register-tiled
// kernels replaced, kept verbatim as the bit-exact reference: four output
// rows at a time, one axpyRow or dot4 per (row, k) or (row, column).

func refGemmNNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	n := b.Cols
	scaleRows(beta, c, lo, hi)
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		for k := 0; k < a.Cols; k++ {
			brow := b.Data[k*n : (k+1)*n]
			if av := a0[k]; av != 0 {
				axpyRow(alpha*av, brow, c0)
			}
			if av := a1[k]; av != 0 {
				axpyRow(alpha*av, brow, c1)
			}
			if av := a2[k]; av != 0 {
				axpyRow(alpha*av, brow, c2)
			}
			if av := a3[k]; av != 0 {
				axpyRow(alpha*av, brow, c3)
			}
		}
	}
	for ; i < hi; i++ {
		crow := c.Row(i)
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpyRow(alpha*av, b.Data[k*n:(k+1)*n], crow)
		}
	}
}

func refGemmNTRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s0 := alpha * dot4(a0, brow)
			s1 := alpha * dot4(a1, brow)
			s2 := alpha * dot4(a2, brow)
			s3 := alpha * dot4(a3, brow)
			if beta == 0 {
				c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
			} else if beta == 1 {
				c0[j] += s0
				c1[j] += s1
				c2[j] += s2
				c3[j] += s3
			} else {
				c0[j] = beta*c0[j] + s0
				c1[j] = beta*c1[j] + s1
				c2[j] = beta*c2[j] + s2
				c3[j] = beta*c3[j] + s3
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			s := alpha * dot4(arow, b.Row(j))
			if beta == 0 {
				crow[j] = s
			} else if beta == 1 {
				crow[j] += s
			} else {
				crow[j] = beta*crow[j] + s
			}
		}
	}
}

func refGemmTNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	scaleRows(beta, c, lo, hi)
	m := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		for k := 0; k < a.Rows; k++ {
			arow := a.Data[k*m : (k+1)*m]
			brow := b.Row(k)
			if av := arow[i]; av != 0 {
				axpyRow(alpha*av, brow, c0)
			}
			if av := arow[i+1]; av != 0 {
				axpyRow(alpha*av, brow, c1)
			}
			if av := arow[i+2]; av != 0 {
				axpyRow(alpha*av, brow, c2)
			}
			if av := arow[i+3]; av != 0 {
				axpyRow(alpha*av, brow, c3)
			}
		}
	}
	for ; i < hi; i++ {
		crow := c.Row(i)
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*m+i]
			if av == 0 {
				continue
			}
			axpyRow(alpha*av, b.Row(k), crow)
		}
	}
}

// Operand fills. Special values go into A and B only: C holds no NaN, so
// the final beta·C + s never adds two NaNs, whose surviving payload Go
// leaves to the compiler's choice of operand order.
const (
	fillDense   = iota // standard normal
	fillSparse         // about half ±0, the rest normal: exercises the zero skip
	fillSpecial        // normal salted with ±0, NaNs, ±Inf, subnormals, huge values
	fillKinds
)

var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0123),
	math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310, 1e300, -1e300,
}

func fillOperand(rng *rand.Rand, x []float64, kind int) {
	for i := range x {
		x[i] = rng.NormFloat64()
		switch {
		case kind == fillSparse && rng.Intn(2) == 0:
			x[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		case kind == fillSpecial && rng.Intn(5) == 0:
			x[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
}

func fillOutput(rng *rand.Rand, x []float64, kind int) {
	fillOperand(rng, x, kind)
	for i, v := range x {
		if math.IsNaN(v) {
			x[i] = math.Inf(-1)
		}
	}
}

// subMat returns a rows×cols Mat over a fresh buffer at element offset off,
// so operands start off the 32-byte boundary whenever off%4 != 0.
func subMat(rows, cols, off int) Mat {
	buf := make([]float64, off+rows*cols+3)
	return MatOf(rows, cols, buf[off:off+rows*cols])
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// gemmDiffDims are the sizes every M, K and N runs over: the tile edges
// (3, 4, 5, 7, 8, 9), multiples and neighbours of the 4×8 tile and of the
// 16-element dot chunk, and the shapes the models hit (60, 70).
var gemmDiffDims = []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 16, 17, 31, 60, 70}

// gemmWideShapes are (M, K, N) wide enough that a four-row block of
// half-zero A takes the per-row path instead of the tile (tilePays). The
// fill cycles with the shape index, so 9×33×400 and 7×20×500 get sparse A.
// The last two are the softmax head's forward and gradient GEMM shapes:
// 32×60×10 and a 784-wide 8×784×10.
var gemmWideShapes = [][3]int{{8, 16, 784}, {9, 33, 400}, {5, 7, 336}, {12, 3, 784}, {7, 20, 500}, {16, 9, 344},
	{32, 60, 10}, {8, 784, 10}}

// TestGemmTilesMatchReference holds GemmNNRows, GemmTNRows and GemmNTRows to
// the pre-tiling bodies bit for bit, over every (M, K, N) in gemmDiffDims³
// and gemmWideShapes, alpha ∈ {1, 1.5, −0.3}, beta ∈ {0, 1, 0.7}, dense,
// sparse and special operands, unaligned sub-slices, and both the full row
// range and an interior [lo, hi).
func TestGemmTilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	alphas := []float64{1, 1.5, -0.3}
	betas := []float64{0, 1, 0.7}
	forms := []struct {
		name     string
		got, ref func(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int)
		// shapes of A and B for an M×N output reducing over K
		a, b func(m, k, n int) (int, int)
	}{
		{"NN", GemmNNRows, refGemmNNRows,
			func(m, k, n int) (int, int) { return m, k }, func(m, k, n int) (int, int) { return k, n }},
		{"TN", GemmTNRows, refGemmTNRows,
			func(m, k, n int) (int, int) { return k, m }, func(m, k, n int) (int, int) { return k, n }},
		{"NT", GemmNTRows, refGemmNTRows,
			func(m, k, n int) (int, int) { return m, k }, func(m, k, n int) (int, int) { return n, k }},
	}
	shapes := gemmWideShapes
	for _, m := range gemmDiffDims {
		for _, k := range gemmDiffDims {
			for _, n := range gemmDiffDims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	for shape, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		kind := shape % fillKinds
		off := shape % 4
		lo, hi := 0, m
		if shape%2 == 1 && m > 2 {
			lo, hi = 1+rng.Intn(m/2), m-rng.Intn(m/2)
		}
		for _, f := range forms {
			ar, ac := f.a(m, k, n)
			br, bc := f.b(m, k, n)
			a, b := subMat(ar, ac, off), subMat(br, bc, (off+1)%4)
			fillOperand(rng, a.Data, kind)
			fillOperand(rng, b.Data, kind)
			c0 := subMat(m, n, (off+2)%4)
			fillOutput(rng, c0.Data, kind)
			got, want := subMat(m, n, off), subMat(m, n, (off+3)%4)
			for _, alpha := range alphas {
				for _, beta := range betas {
					copy(got.Data, c0.Data)
					copy(want.Data, c0.Data)
					f.got(alpha, a, b, beta, got, lo, hi)
					f.ref(alpha, a, b, beta, want, lo, hi)
					sameBits(t, fmt.Sprintf("%s M=%d K=%d N=%d rows [%d,%d) alpha=%v beta=%v fill=%d",
						f.name, m, k, n, lo, hi, alpha, beta, kind), got.Data, want.Data)
				}
			}
		}
	}
}

// TestTilePaysRoutesSparseWideBlocks pins the routing the differential test
// relies on to reach both axpy paths: dense A always tiles, half-zero A
// tiles only while the output is narrow.
func TestTilePaysRoutesSparseWideBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		kind, n int
		want    bool
	}{
		{fillDense, 784, true},
		{fillSparse, 60, true},
		{fillSparse, 160, true},
		{fillSparse, 784, false},
	} {
		a := make([]float64, 4*32)
		fillOperand(rng, a, tc.kind)
		if got := tilePays(a, 32, 1, 32, tc.n, 0); got != tc.want {
			t.Errorf("fill %d, n=%d: tilePays = %v, want %v", tc.kind, tc.n, got, tc.want)
		}
	}
}
