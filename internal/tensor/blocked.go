// Package tensor provides dense row-major matrix views and the compute
// kernels (GEMM, matvec, im2col) that back the neural-network substrate.
// Kernels are written cache-consciously, the large ones fan fixed-size
// blocks out (Par) over the process's one helper pool, which every other
// fan-out in the process shares too (Fan, Hand), and every result is
// bit-reproducible whatever the worker count.
package tensor

import (
	"fmt"
	"math"
)

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

// GemmNN computes C = alpha*A*B + beta*C serially. A is (M×K), B is (K×N),
// C is (M×N). C must not alias A or B.
func GemmNN(alpha float64, a, b Mat, beta float64, c Mat) {
	checkNN(a, b, c)
	GemmNNRows(alpha, a, b, beta, c, 0, c.Rows)
}

// GemmNNRows is GemmNN restricted to output rows [lo, hi). beta is applied
// to those rows only.
func GemmNNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	scaleRows(beta, c, lo, hi)
	gemmAxpy(alpha, a.Data, a.Cols, 1, a.Cols, b, c, lo, hi)
}

// gemmAxpy is the body GemmNNRows and GemmTNRows share once beta is
// applied: for every output row i in [lo, hi) and every k < kn in ascending
// order it adds (alpha·A(i,k))·B[k,:] to C[i,:], skipping A(i,k) == 0,
// where A(i,k) = a[i*rs+k*ks]. Each element of C therefore sees one
// multiply-add per nonzero term in ascending k, whichever path computes it.
//
// Output rows go four at a time so each streamed row of B is reused
// fourfold. With AVX2 the first n&^3 columns of a four-row block are one
// register-tiled axpyTileSIMD call, which keeps its slice of C in registers
// for the whole k loop and does per element exactly what axpySIMD does; the
// columns and rows a tile does not cover take axpyRow on sub-slices. A wide
// block whose A is sparse skips the tile (see tilePays); which path runs
// never changes a bit.
func gemmAxpy(alpha float64, a []float64, rs, ks, kn int, b, c Mat, lo, hi int) {
	n := b.Cols
	tiled := 0 // columns [0, tiled) of a dense four-row block are register-tiled
	if simdEnabled && kn > 0 {
		tiled = n &^ 3
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		j0 := 0
		if tiled > 0 && tilePays(a, rs, ks, kn, n, i) {
			// The slice expressions bound everything the kernel touches.
			axpyTileSIMD(alpha, a[i*rs:(i+3)*rs+(kn-1)*ks+1], rs, ks, kn,
				b.Data[:(kn-1)*n+tiled], c.Data[i*n:(i+3)*n+tiled], n, tiled)
			j0 = tiled
		}
		axpyRows(alpha, a, rs, ks, kn, b, c, i, i+4, j0)
	}
	axpyRows(alpha, a, rs, ks, kn, b, c, i, hi, 0)
}

// tilePays reports whether the register tile beats the per-row path on the
// four rows at i of an n-column output. The tile skips a zero A(i,k) with a
// branch in each of its n/8 column tiles, which mispredicts when zeros are
// common and scattered (the ReLU-masked dY of a dense layer's backward pass
// is about half zeros); the per-row path pays one axpyRow call per nonzero
// term and nothing per zero. Measured on random A, the tile wins while the
// zero fraction times n stays under about 160: any fraction for n ≤ 160,
// about 20 % at n = 784. The fraction is sampled over the first 16 k,
// counted branch-free so the count does not mispredict on the same data.
func tilePays(a []float64, rs, ks, kn, n, i int) bool {
	if n <= 160 {
		return true
	}
	m := min(kn, 16)
	zeros := 0
	for k := 0; k < m; k++ {
		p := i*rs + k*ks
		for r := 0; r < 4; r++ {
			y := math.Float64bits(a[p+r*rs]) << 1 // 0 iff ±0
			zeros += int((y|-y)>>63) ^ 1
		}
	}
	return zeros*n <= 160*4*m
}

// axpyRows is gemmAxpy's reference form on rows [r0, r1) and columns
// [j0, n): one axpyRow per nonzero A(i,k), k ascending.
func axpyRows(alpha float64, a []float64, rs, ks, kn int, b, c Mat, r0, r1, j0 int) {
	n := b.Cols
	if r0 == r1 || j0 == n {
		return
	}
	for k := 0; k < kn; k++ { // k ascending: fixed reduction order
		brow := b.Data[k*n+j0 : (k+1)*n]
		p, q := r0*rs+k*ks, r0*n
		for i := r0; i < r1; i++ {
			if av := a[p]; av != 0 {
				axpyRow(alpha*av, brow, c.Data[q+j0:q+n])
			}
			p += rs
			q += n
		}
	}
}

// scaleRows applies beta to rows [lo, hi) of c ahead of accumulation.
func scaleRows(beta float64, c Mat, lo, hi int) {
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

// GemmNTRows computes output rows [lo, hi) of C = alpha*A*Bᵀ + beta*C
// serially. A is (M×K), B is (N×K), C is (M×N); C must not alias A or B.
//
// Output rows go four at a time so each streamed row of B feeds four dot
// products while hot in cache. With AVX2, B rows go three at a time through
// dot3RowsSIMD, which shares each loaded chunk of the A row across three
// dots that each keep dotSIMD's accumulator layout, combine order and
// scalar tail; the B rows left over take dot4. Every element is alpha times
// the same fixed-order dot, combined with beta·C the same way, so results
// are bit-identical to the one-element-at-a-time loop.
//
// The plain forms — alpha = 1 with beta 0 (a forward pass) or beta 1 (an
// accumulated gradient) — hand all of [lo, hi) of each B triple to one
// dot3RowsSIMD call, which stores d or C + d itself, betaCombine's result
// for those betas (1·d is d). Other forms take one row per call.
func GemmNTRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	kn, n := a.Cols, c.Cols
	j0 := 0 // B rows [0, j0) are done
	if simdEnabled && alpha == 1 && (beta == 0 || beta == 1) && lo < hi {
		for ; j0+3 <= b.Rows; j0 += 3 {
			dot3RowsSIMD(a.Data[lo*kn:hi*kn], b.Data[j0*kn:(j0+3)*kn],
				c.Data[lo*n+j0:(hi-1)*n+j0+3], kn, n, hi-lo, beta == 1)
		}
	}
	for i0 := lo; i0 < hi; i0 += 4 {
		i1 := min(i0+4, hi)
		j := j0
		if simdEnabled {
			for ; j+3 <= b.Rows; j += 3 {
				y := b.Data[j*kn : (j+3)*kn]
				for i := i0; i < i1; i++ {
					var d [3]float64
					dot3RowsSIMD(a.Row(i), y, d[:], kn, 3, 1, false)
					crow := c.Row(i)
					crow[j] = betaCombine(beta, crow[j], alpha*d[0])
					crow[j+1] = betaCombine(beta, crow[j+1], alpha*d[1])
					crow[j+2] = betaCombine(beta, crow[j+2], alpha*d[2])
				}
			}
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)
			for i := i0; i < i1; i++ {
				crow := c.Row(i)
				crow[j] = betaCombine(beta, crow[j], alpha*dot4(a.Row(i), brow))
			}
		}
	}
}

// betaCombine is GemmNTRows' per-element store: s into a fresh C (beta 0),
// added to C (beta 1), or beta·C + s.
func betaCombine(beta, c, s float64) float64 {
	switch beta {
	case 0:
		return s
	case 1:
		return c + s
	}
	return beta*c + s
}

// GemmTN computes C = alpha*Aᵀ*B + beta*C serially. A is (K×M), B is (K×N),
// C is (M×N); the reduction runs over the rows of A and B in ascending
// order. C must not alias A or B.
func GemmTN(alpha float64, a, b Mat, beta float64, c Mat) {
	checkTN(a, b, c)
	GemmTNRows(alpha, a, b, beta, c, 0, c.Rows)
}

// GemmTNRows is GemmTN restricted to output rows [lo, hi): GemmNNRows'
// body with A read down its columns.
func GemmTNRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	scaleRows(beta, c, lo, hi)
	gemmAxpy(alpha, a.Data, 1, a.Cols, a.Rows, b, c, lo, hi)
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

// dot4 is an inner product with four independent accumulators combined in a
// fixed order; the unroll breaks the add dependency chain without
// sacrificing reproducibility.
func dot4(x, y []float64) float64 {
	if simdEnabled {
		return dotSIMD(x, y)
	}
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
