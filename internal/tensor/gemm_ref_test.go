package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the one-row-block GEMM bodies the register-tiled
// kernels replaced, kept as the bit-exact reference: four output rows at a
// time, one axpyRow per (row, k) or one refDot per (row, column).

func refGemmNNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	n := b.Cols
	refScaleRows(beta, c, lo, hi)
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

// refScaleRows is the beta step the reference bodies ran before the
// accumulation: beta 0 clears the rows, so NaN and Inf in C are gone.
func refScaleRows(beta float64, c Mat, lo, hi int) {
	if beta == 1 {
		return
	}
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else {
			for j := range crow {
				crow[j] *= beta
			}
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
			s0 := alpha * refDot(a0, brow)
			s1 := alpha * refDot(a1, brow)
			s2 := alpha * refDot(a2, brow)
			s3 := alpha * refDot(a3, brow)
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
			s := alpha * refDot(arow, b.Row(j))
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

// refDot is the reference dot product: on an AVX2 host fmaDot, the Go
// transcription of the SIMD dot, and on the scalar fallback dot4 itself.
func refDot(x, y []float64) float64 {
	if simdEnabled {
		return fmaDot(x, y)
	}
	return dot4(x, y)
}

// fmaDot computes Σ x[i]*y[i] in the order every AVX2 dot of GemmNTRows
// promises, written out in Go so the assembly is checked against a spec
// rather than against itself: sixteen accumulators acc[q][l], element
// 16c+4q+l fused into acc[q][l] for every full 16-element chunk c; per
// lane l the combine (acc[0][l]+acc[1][l]) + (acc[2][l]+acc[3][l]); the
// low half plus the high half, (u0+u2) and (u1+u3); their sum; then one
// fused multiply-add per remaining element in ascending order.
func fmaDot(x, y []float64) float64 {
	var acc [4][4]float64
	n := len(x) &^ 15
	for c := 0; c < n; c += 16 {
		for q := range acc {
			for l := range acc[q] {
				i := c + 4*q + l
				acc[q][l] = fmaX86(x[i], y[i], acc[q][l])
			}
		}
	}
	var u [4]float64
	for l := range u {
		u[l] = addX86(addX86(acc[0][l], acc[1][l]), addX86(acc[2][l], acc[3][l]))
	}
	s := addX86(addX86(u[0], u[2]), addX86(u[1], u[3]))
	for i := n; i < len(x); i++ {
		s = fmaX86(x[i], y[i], s)
	}
	return s
}

// addX86 is x + y with the NaN an x86 vector add returns when both
// operands are NaN: the first operand's. Go leaves that choice to the
// compiler's operand order, so it is made here.
func addX86(x, y float64) float64 {
	if x != x {
		return x
	}
	return x + y
}

// fmaX86 is a·b + c rounded once, with the NaN an x86 FMA returns when
// several operands are NaN: a's, then b's, then c's (a is the register
// multiplicand, b the memory one, c the accumulator).
func fmaX86(a, b, c float64) float64 {
	switch {
	case a != a:
		return a
	case b != b:
		return b
	case c != c:
		return c
	}
	return math.FMA(a, b, c)
}

func refGemmTNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	refScaleRows(beta, c, lo, hi)
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
// The rest are the shapes the models hit: the softmax head's forward and
// gradient GEMMs at 32×60×10 and a 784-wide 8×784×10, its 16-row
// minibatch (16×60×10), the thin CNN's dense layer (8×392×10) and its
// conv2 weight gradient (8×196×100).
var gemmWideShapes = [][3]int{{8, 16, 784}, {9, 33, 400}, {5, 7, 336}, {12, 3, 784}, {7, 20, 500}, {16, 9, 344},
	{32, 60, 10}, {8, 784, 10}, {16, 60, 10}, {8, 392, 10}, {8, 196, 100}}

// TestGemmTilesMatchReference holds GemmNNRows, GemmTNRows and GemmNTRows to
// the pre-tiling bodies bit for bit, over every (M, K, N) in gemmDiffDims³,
// gemmWideShapes and a K sweep over every tail length, alpha ∈ {1, 1.5, −0.3}, beta ∈ {0, 1,
// 0.7}, dense, sparse and special operands, unaligned sub-slices, and both
// the full row range and an interior [lo, hi). On an AVX2 host the NT
// reference takes its dots from fmaDot, not from the assembly under test.
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
	// The tail sweep: K over every residue mod 16, with no, one and two
	// whole 16-element chunks before the tail, at the softmax head's N = 10
	// (three B triples and one leftover B row) and M = 11, on the interior
	// rows [1, 10): two blocks of four rows and one row left over.
	tails := len(shapes)
	for k := 0; k < 48; k++ {
		shapes = append(shapes, [3]int{11, k, 10})
	}
	for shape, dims := range shapes {
		m, k, n := dims[0], dims[1], dims[2]
		kind := shape % fillKinds
		off := shape % 4
		lo, hi := 0, m
		switch {
		case shape >= tails:
			lo, hi = 1, m-1
		case shape%2 == 1 && m > 2:
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
		if got := tilePays(a, 32, 1, 32, tc.n, 0, 4); got != tc.want {
			t.Errorf("fill %d, n=%d: tilePays = %v, want %v", tc.kind, tc.n, got, tc.want)
		}
	}
}

// TestGemmBetaZeroEdgeCases holds beta-0 GemmNNRows and GemmTNRows, which
// never clear C first, to the reference bodies, which do: C prefilled
// with NaNs and ±Inf that must not survive, A with an all-zero row, one of
// −0s and products that are −0 (a negative A against B's zeros), N with
// every residue mod 4 (the columns a register tile does not cover),
// alpha ≠ 1 (no tile at all), a half-zero A wide enough that tilePays
// routes it to the per-row path, and K = 0 (nothing to add: C is +0).
// Interior row ranges check that rows outside [lo, hi) keep their
// NaNs.
func TestGemmBetaZeroEdgeCases(t *testing.T) {
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		cFill := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1)}
		for _, k := range []int{0, 1, 3, 17} {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 400} {
				for _, alpha := range []float64{1, -0.5} {
					for _, kind := range []int{fillDense, fillSparse} {
						m := 6
						a, b := randMatKind(rng, m, k, kind), randMatKind(rng, k, n, kind)
						for r := 0; r < k; r++ {
							a.Data[1*k+r] = 0                        // row 1: all +0
							a.Data[2*k+r] = math.Copysign(0, -1)     // row 2: all −0
							a.Data[3*k+r] = -math.Abs(a.Data[3*k+r]) // row 3: −0 products on B's zeros
						}
						for j := range b.Data {
							if j%3 == 0 {
								b.Data[j] = 0
							}
						}
						at := transposed(a)
						for _, rows := range [][2]int{{0, m}, {1, 5}} {
							lo, hi := rows[0], rows[1]
							what := fmt.Sprintf("M=%d K=%d N=%d alpha=%v fill=%d rows [%d,%d)", m, k, n, alpha, kind, lo, hi)
							for _, f := range []struct {
								name     string
								a        Mat
								got, ref func(float64, Mat, Mat, float64, Mat, int, int)
							}{
								{"NN", a, GemmNNRows, refGemmNNRows},
								{"TN", at, GemmTNRows, refGemmTNRows},
							} {
								got, want := MatOf(m, n, make([]float64, m*n)), MatOf(m, n, make([]float64, m*n))
								for i := range got.Data {
									got.Data[i] = cFill[i%len(cFill)]
								}
								copy(want.Data, got.Data)
								f.got(alpha, f.a, b, 0, got, lo, hi)
								f.ref(alpha, f.a, b, 0, want, lo, hi)
								sameBits(t, f.name+" "+what, got.Data, want.Data)
								// A and B are finite, and a sum from +0 is never −0.
								for i, v := range got.Data[lo*n : hi*n] {
									if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 && math.Signbit(v) {
										t.Fatalf("%s %s: element %d = %v survived from C", f.name, what, lo*n+i, v)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// randMatKind is a rows×cols Mat filled by fillOperand.
func randMatKind(rng *rand.Rand, rows, cols, kind int) Mat {
	m := MatOf(rows, cols, make([]float64, rows*cols))
	fillOperand(rng, m.Data, kind)
	return m
}

// transposed returns a fresh copy of m transposed.
func transposed(m Mat) Mat {
	t := MatOf(m.Cols, m.Rows, make([]float64, len(m.Data)))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}
