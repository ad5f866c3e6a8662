package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) Mat {
	m := MatOf(rows, cols, make([]float64, rows*cols))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func naiveNN(alpha float64, a, b Mat, beta float64, c Mat) Mat {
	out := MatOf(c.Rows, c.Cols, append([]float64(nil), c.Data...))
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*c.Cols+j] = alpha*s + beta*c.Data[i*c.Cols+j]
		}
	}
	return out
}

// gemmNT is the serial C = alpha*A*Bᵀ + beta*C over every row: the NT form
// the naive and parallel products are checked against.
func gemmNT(alpha float64, a, b Mat, beta float64, c Mat) {
	GemmNTRows(alpha, a, b, beta, c, 0, c.Rows)
}

func matsClose(t *testing.T, got, want Mat, tol float64) {
	t.Helper()
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
			t.Fatalf("element %d: got %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestGemmVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{3, 4, 5}, {17, 9, 33}, {1, 7, 1}, {16, 16, 16}, {40, 3, 50}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := naiveNN(1.5, a, b, -0.5, c)

		got := MatOf(m, n, append([]float64(nil), c.Data...))
		GemmNN(1.5, a, b, -0.5, got)
		matsClose(t, got, want, 1e-12)

		// NT: B supplied transposed.
		bt := randMat(rng, n, k)
		bNT := MatOf(k, n, make([]float64, k*n))
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bNT.Data[j*n+i] = bt.Data[i*k+j]
			}
		}
		want = naiveNN(2, a, bNT, 1, c)
		got = MatOf(m, n, append([]float64(nil), c.Data...))
		gemmNT(2, a, bt, 1, got)
		matsClose(t, got, want, 1e-12)

		// TN: A supplied transposed.
		at := randMat(rng, k, m)
		aTN := MatOf(m, k, make([]float64, m*k))
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				aTN.Data[j*k+i] = at.Data[i*m+j]
			}
		}
		want = naiveNN(-1, aTN, b, 0, c)
		got = MatOf(m, n, append([]float64(nil), c.Data...))
		GemmTN(-1, at, b, 0, got)
		matsClose(t, got, want, 1e-12)
	}
}

func TestParGemmBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Big enough to clear parCostThreshold and span many row blocks.
	a := randMat(rng, 130, 90)
	b := randMat(rng, 90, 70)
	bt := randMat(rng, 70, 90)
	at := randMat(rng, 90, 130)

	serial := MatOf(130, 70, make([]float64, 130*70))
	GemmNN(1, a, b, 0, serial)
	par := NewPar()
	got := MatOf(130, 70, make([]float64, 130*70))
	par.GemmNN(1, a, b, 0, got)
	for i := range got.Data {
		if got.Data[i] != serial.Data[i] {
			t.Fatalf("GemmNN parallel differs from serial at %d", i)
		}
	}

	gemmNT(1, a, bt, 0, serial)
	par.GemmNT(1, a, bt, 0, got)
	for i := range got.Data {
		if got.Data[i] != serial.Data[i] {
			t.Fatalf("GemmNT parallel differs from serial at %d", i)
		}
	}

	GemmTN(1, at, b, 0, serial)
	par.GemmTN(1, at, b, 0, got)
	for i := range got.Data {
		if got.Data[i] != serial.Data[i] {
			t.Fatalf("GemmTN parallel differs from serial at %d", i)
		}
	}
}

func TestParGemmIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 128, 64)
	b := randMat(rng, 64, 96)
	run := func() []float64 {
		p := NewPar()
		c := MatOf(128, 96, make([]float64, 128*96))
		p.GemmNN(1, a, b, 0, c)
		return c.Data
	}
	ref := run()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, old} {
		runtime.GOMAXPROCS(procs)
		got := run()
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d changes element %d", procs, i)
			}
		}
	}
}

func TestParRunCoversRangeOnce(t *testing.T) {
	counts := make([]int32, 1000)
	p := NewPar()
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i]++
		}
	}
	p.Run(len(counts), 16, 1<<30, body)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParGemmZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 128, 64)
	b := randMat(rng, 64, 96)
	c := MatOf(128, 96, make([]float64, 128*96))
	p := NewPar()
	p.GemmNN(1, a, b, 0, c) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		p.GemmNN(1, a, b, 0, c)
	})
	if allocs != 0 {
		t.Fatalf("parallel GEMM allocates %v per call, want 0", allocs)
	}
}

func TestAddRowVecAndColSums(t *testing.T) {
	c := MatOf(2, 2, []float64{1, 2, 3, 4})
	AddRowVec(c, []float64{10, 20})
	if c.Data[0] != 11 || c.Data[3] != 24 {
		t.Fatalf("AddRowVec = %v", c.Data)
	}
	sums := []float64{1, 1}
	ColSumsAcc(sums, c)
	if sums[0] != 1+11+13 || sums[1] != 1+22+24 {
		t.Fatalf("ColSumsAcc = %v", sums)
	}
}

func TestGemmDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	GemmNN(1, MatOf(2, 3, make([]float64, 6)), MatOf(2, 3, make([]float64, 6)),
		0, MatOf(2, 3, make([]float64, 6)))
}

func BenchmarkGemmNTBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 32, 784) // batch × in
	w := randMat(rng, 128, 784)
	y := MatOf(32, 128, make([]float64, 32*128))
	p := NewPar()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GemmNT(1, x, w, 0, y)
	}
}

// benchGemmShape times one serial GEMM of the given form, C = A·B + beta·C
// on an m×n output reducing over k, at a shape a benchmark workload's
// model hits.
func benchGemmShape(b *testing.B, gemm func(float64, Mat, Mat, float64, Mat), beta float64, ar, ac, br, bc, m, n int) {
	rng := rand.New(rand.NewSource(6))
	x, y := randMat(rng, ar, ac), randMat(rng, br, bc)
	c := MatOf(m, n, make([]float64, m*n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm(1, x, y, beta, c)
	}
}

// BenchmarkGemmShapeNT32x60x10 is the convex Softmax forward's shape, 32
// rows of 60 features against 10 class rows, accumulated into C (beta 1).
func BenchmarkGemmShapeNT32x60x10(b *testing.B) {
	benchGemmShape(b, gemmNT, 1, 32, 60, 10, 60, 32, 10)
}

// BenchmarkGemmShapeNTFwd32x60x10 is the convex Softmax forward itself:
// the same shape stored into a fresh C (beta 0), as forwardChunk calls it.
func BenchmarkGemmShapeNTFwd32x60x10(b *testing.B) {
	benchGemmShape(b, gemmNT, 0, 32, 60, 10, 60, 32, 10)
}

// BenchmarkGemmShapeTN10x32x60 is the convex Softmax weight gradient:
// 10 classes × 60 features reduced over a 32-row minibatch.
func BenchmarkGemmShapeTN10x32x60(b *testing.B) {
	benchGemmShape(b, GemmTN, 1, 32, 10, 32, 60, 10, 60)
}

// BenchmarkGemmShapeNN4x25x784 is the thinned CNN's conv1 forward: 4
// filters of 25 taps against a 25×784 im2col block.
func BenchmarkGemmShapeNN4x25x784(b *testing.B) {
	benchGemmShape(b, GemmNN, 1, 4, 25, 25, 784, 4, 784)
}

func TestSIMDKernelsMatchScalar(t *testing.T) {
	if !simdEnabled {
		t.Skip("SIMD unavailable on this CPU")
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 4, 15, 16, 17, 60, 784, 1000} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		var want float64
		for i := range x {
			want += x[i] * y[i]
		}
		if got := dotSIMD(x, y); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("n=%d dot: simd %v scalar %v", n, got, want)
		}
		y2 := append([]float64(nil), y...)
		axpySIMD(0.7, x, y2)
		for i := range y2 {
			w := y[i] + 0.7*x[i]
			if math.Abs(y2[i]-w) > 1e-12*(1+math.Abs(w)) {
				t.Fatalf("n=%d axpy[%d]: %v want %v", n, i, y2[i], w)
			}
		}
	}
}
