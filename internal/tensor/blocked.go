// Package tensor provides dense row-major matrix views and the compute
// kernels (GEMM, matvec, im2col) that back the neural-network substrate.
// Kernels are written cache-consciously, the large ones fan fixed-size
// blocks out (Par) over the process's one helper pool, which every other
// fan-out in the process shares too (Fan, Hand), and every result is
// bit-reproducible whatever the worker count.
package tensor

import "fmt"

// Mat is a dense row-major matrix view held by value, the currency of the
// blocked kernels below. It never owns its backing array and never escapes
// to the heap when passed into a kernel, which is what keeps the batched
// forward/backward hot path allocation-free.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// MatOf builds a Mat view over data. len(data) must be rows*cols.
func MatOf(rows, cols int, data []float64) Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatOf %dx%d over %d elements", rows, cols, len(data)))
	}
	return Mat{Rows: rows, Cols: cols, Data: data}
}

// Row returns a slice aliasing row i.
func (m Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// The blocked kernels fix two orders once and for all, so every result is
// bit-reproducible run-to-run and independent of GOMAXPROCS:
//
//   - Block order: parallel partitions always cut the OUTPUT rows into
//     fixed-size blocks (gemmRowGrain rows, or one sample for per-sample
//     fan-out). Each output element is written by exactly one block, so how
//     blocks map to goroutines cannot change any value.
//   - Reduction order: within a block, every element accumulates its terms
//     in ascending reduction index (k for GEMM, sample index for batched
//     parameter gradients). No per-worker partial sums are ever combined.
//
// The *Rows variants compute only output rows [lo, hi) and exist so callers
// can compose their own deterministic reductions (e.g. conv weight
// gradients accumulated sample-by-sample inside a row block).

// GemmNN computes C = A*B serially, or C += A*B with acc. A is (M×K), B is
// (K×N), C is (M×N). C must not alias A or B.
func GemmNN(a, b Mat, acc bool, c Mat) {
	checkNN(a, b, c)
	GemmNNRows(a, b, acc, c, 0, c.Rows)
}

// GemmNNRows is GemmNN restricted to output rows [lo, hi).
func GemmNNRows(a, b Mat, acc bool, c Mat, lo, hi int) {
	gemmAxpy(a.Data, a.Cols, 1, a.Cols, b, c, lo, hi, !acc)
}

// gemmAxpy is the body GemmNNRows and GemmTNRows share: for every output
// row i in [lo, hi) and every k < kn in ascending order it adds
// A(i,k)·B[k,:] to C[i,:], skipping A(i,k) == 0, where
// A(i,k) = a[i*rs+k*ks]. With zero each element starts from +0 instead,
// as if C had been cleared first. Each element of C therefore sees one
// multiply-add per nonzero term in ascending k, whichever path computes
// it.
//
// Output rows go four at a time, the last one to three together, so each
// streamed row of B is reused across the block. With AVX2 the first n&^3
// columns of a block are one register-tiled axpyTileSIMD call, which keeps
// its slice of C in registers for the whole k loop (starting them at +0
// with zero, so a fresh C is neither cleared nor read there) and does per
// element exactly what axpySIMD does; the n%4 columns a tile does not
// cover, and every column without AVX2, take axpyRow on sub-slices,
// cleared first with zero.
func gemmAxpy(a []float64, rs, ks, kn int, b, c Mat, lo, hi int, zero bool) {
	n := b.Cols
	tiled := 0 // columns [0, tiled) are register-tiled
	if simdEnabled && kn > 0 {
		tiled = n &^ 3
	}
	for i := lo; i < hi; i += 4 {
		rows := min(4, hi-i)
		if tiled > 0 {
			// The slice expressions bound everything the kernel touches.
			axpyTileSIMD(a[i*rs:(i+rows-1)*rs+(kn-1)*ks+1], rs, ks, kn,
				b.Data[:(kn-1)*n+tiled], c.Data[i*n:(i+rows-1)*n+tiled], n, tiled, rows, zero)
		}
		if zero && tiled < n {
			for r := i; r < i+rows; r++ {
				clear(c.Data[r*n+tiled : (r+1)*n])
			}
		}
		axpyRows(a, rs, ks, kn, b, c, i, i+rows, tiled)
	}
}

// axpyRows is gemmAxpy's reference form on rows [r0, r1) and columns
// [j0, n): one axpyRow per nonzero A(i,k), k ascending.
func axpyRows(a []float64, rs, ks, kn int, b, c Mat, r0, r1, j0 int) {
	n := b.Cols
	if r0 == r1 || j0 == n {
		return
	}
	for k := 0; k < kn; k++ { // k ascending: fixed reduction order
		brow := b.Data[k*n+j0 : (k+1)*n]
		p, q := r0*rs+k*ks, r0*n
		for i := r0; i < r1; i++ {
			if av := a[p]; av != 0 {
				axpyRow(av, brow, c.Data[q+j0:q+n])
			}
			p += rs
			q += n
		}
	}
}

// GemmNTRows computes output rows [lo, hi) of C = A*Bᵀ serially, or
// C += A*Bᵀ with acc. A is (M×K), B is (N×K), C is (M×N); C must not alias
// A or B.
//
// With AVX2, B rows go three at a time, the last one or two together,
// through dotRowsSIMD, which shares each loaded chunk of an A row across
// the dots of its B rows, runs the K%16 tails of four A rows together and
// stores d or C + d itself. Every dot keeps the one accumulator layout,
// combine order and scalar tail whichever rows it shares a call with, so
// results are bit-identical to the one-element-at-a-time loop. Without
// AVX2 every element is one dot4.
func GemmNTRows(a, b Mat, acc bool, c Mat, lo, hi int) {
	kn, n := a.Cols, c.Cols
	if simdEnabled && lo < hi {
		for j := 0; j < b.Rows; j += 3 {
			nb := min(3, b.Rows-j)
			dotRowsSIMD(a.Data[lo*kn:hi*kn], b.Data[j*kn:(j+nb)*kn],
				c.Data[lo*n+j:(hi-1)*n+j+nb], kn, n, hi-lo, nb, acc)
		}
		return
	}
	for i0 := lo; i0 < hi; i0 += 4 {
		i1 := min(i0+4, hi)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			for i := i0; i < i1; i++ {
				crow := c.Row(i)
				d := dot4(a.Row(i), brow)
				if acc {
					d = crow[j] + d
				}
				crow[j] = d
			}
		}
	}
}

// GemmTN computes C = Aᵀ*B serially, or C += Aᵀ*B with acc. A is (K×M), B
// is (K×N), C is (M×N); the reduction runs over the rows of A and B in
// ascending order. C must not alias A or B.
func GemmTN(a, b Mat, acc bool, c Mat) {
	checkTN(a, b, c)
	GemmTNRows(a, b, acc, c, 0, c.Rows)
}

// GemmTNRows is GemmTN restricted to output rows [lo, hi): GemmNNRows'
// body with A read down its columns.
func GemmTNRows(a, b Mat, acc bool, c Mat, lo, hi int) {
	gemmAxpy(a.Data, 1, a.Cols, a.Rows, b, c, lo, hi, !acc)
}

// AddRowVec adds v to every row of c (the batched bias broadcast).
func AddRowVec(c Mat, v []float64) {
	if len(v) != c.Cols {
		panic("tensor: AddRowVec dimension mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Row(i)
		for j, bv := range v {
			row[j] += bv
		}
	}
}

// ColSumsAcc accumulates the column sums of m into dst (+=), rows in
// ascending order (the batched bias gradient).
func ColSumsAcc(dst []float64, m Mat) {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsAcc dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// dot4 is the scalar fallback's inner product: four independent
// accumulators combined in a fixed order; the unroll breaks the add
// dependency chain without sacrificing reproducibility.
func dot4(x, y []float64) float64 {
	y = y[:len(x)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for i := n; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return ((s0 + s1) + s2) + s3
}

// axpyRow computes y += s*x with 4-way unrolling. The term order within
// each element is fixed (one product per index), so results are exact-sum
// identical to the rolled loop.
func axpyRow(s float64, x, y []float64) {
	if simdEnabled {
		axpySIMD(s, x, y)
		return
	}
	y = y[:len(x)] // bounds-check elimination hint
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		y[i] += s * x[i]
		y[i+1] += s * x[i+1]
		y[i+2] += s * x[i+2]
		y[i+3] += s * x[i+3]
	}
	for i := n; i < len(x); i++ {
		y[i] += s * x[i]
	}
}

func checkNN(a, b, c Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GemmNN dims A %dx%d B %dx%d C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

func checkNT(a, b, c Mat) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: GemmNT dims A %dx%d B %dx%d C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

func checkTN(a, b, c Mat) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GemmTN dims A %dx%d B %dx%d C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}
