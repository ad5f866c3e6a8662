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
	gemmAxpy(alpha, a.Data, a.Cols, 1, a.Cols, b, c, lo, hi, beta == 0)
}

// gemmAxpy is the body GemmNNRows and GemmTNRows share once a nonzero beta
// is applied: for every output row i in [lo, hi) and every k < kn in
// ascending order it adds (alpha·A(i,k))·B[k,:] to C[i,:], skipping
// A(i,k) == 0, where A(i,k) = a[i*rs+k*ks]. With zero (beta 0) each
// element starts from +0 instead, as if C had been cleared first. Each
// element of C therefore sees one multiply-add per nonzero term in
// ascending k, whichever path computes it.
//
// Output rows go four at a time, the last one to three together, so each
// streamed row of B is reused across the block. With AVX2 and alpha = 1
// (every caller's), the first n&^3 columns of a block are one
// register-tiled axpyTileSIMD call, which keeps its slice of C in
// registers for the whole k loop (starting them at +0 with zero, so a
// beta-0 C is neither cleared nor read there) and does per element
// exactly what axpySIMD does; the n%4 columns a tile does not cover, and
// every column at another alpha, take axpyRow on sub-slices, cleared
// first with zero. A wide block whose A is sparse skips the tile (see
// tilePays); which path runs never changes a bit.
func gemmAxpy(alpha float64, a []float64, rs, ks, kn int, b, c Mat, lo, hi int, zero bool) {
	n := b.Cols
	tiled := 0 // columns [0, tiled) of a dense block are register-tiled
	if simdEnabled && alpha == 1 && kn > 0 {
		tiled = n &^ 3
	}
	for i := lo; i < hi; i += 4 {
		rows := min(4, hi-i)
		j0 := 0
		if tiled > 0 && tilePays(a, rs, ks, kn, n, i, rows) {
			// The slice expressions bound everything the kernel touches.
			axpyTileSIMD(a[i*rs:(i+rows-1)*rs+(kn-1)*ks+1], rs, ks, kn,
				b.Data[:(kn-1)*n+tiled], c.Data[i*n:(i+rows-1)*n+tiled], n, tiled, rows, zero)
			j0 = tiled
		}
		if zero && j0 < n {
			for r := i; r < i+rows; r++ {
				clear(c.Data[r*n+j0 : (r+1)*n])
			}
		}
		axpyRows(alpha, a, rs, ks, kn, b, c, i, i+rows, j0)
	}
}

// tilePays reports whether the register tile beats the per-row path on the
// rows i..i+rows-1 of an n-column output. The tile skips a zero A(i,k)
// with a branch in each of its column tiles (8 or 12 wide), which
// mispredicts when zeros are common and scattered (the ReLU-masked dY of
// a dense layer's backward pass is about half zeros); the per-row path
// pays one axpyRow call per nonzero term and nothing per zero. Measured on
// random A, the tile wins while the zero fraction times n stays under
// about 160: any fraction for n ≤ 160, about 20 % at n = 784. The
// fraction is sampled over the first 16 k, counted branch-free so the
// count does not mispredict on the same data.
func tilePays(a []float64, rs, ks, kn, n, i, rows int) bool {
	if n <= 160 {
		return true
	}
	m := min(kn, 16)
	zeros := 0
	for k := 0; k < m; k++ {
		p := i*rs + k*ks
		for r := 0; r < rows; r++ {
			y := math.Float64bits(a[p+r*rs]) << 1 // 0 iff ±0
			zeros += int((y|-y)>>63) ^ 1
		}
	}
	return zeros*n <= 160*rows*m
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

// scaleRows applies beta to rows [lo, hi) of c ahead of accumulation. It
// leaves c alone at beta 1, and at beta 0, where gemmAxpy starts every
// element from +0 itself.
func scaleRows(beta float64, c Mat, lo, hi int) {
	if beta == 1 || beta == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		for j := range crow {
			crow[j] *= beta
		}
	}
}

// GemmNTRows computes output rows [lo, hi) of C = alpha*A*Bᵀ + beta*C
// serially. A is (M×K), B is (N×K), C is (M×N); C must not alias A or B.
//
// With AVX2, B rows go three at a time, the last one or two together,
// through dotRowsSIMD, which shares each loaded chunk of an A row across
// the dots of its B rows and runs the K%16 tails of four A rows together.
// Every dot keeps the one accumulator layout, combine order and scalar
// tail whichever rows it shares a call with. Every element is alpha times
// that fixed-order dot, combined with beta·C the same way, so results are
// bit-identical to the one-element-at-a-time loop.
//
// The plain forms — alpha = 1 with beta 0 (a forward pass) or beta 1 (an
// accumulated gradient) — hand all of [lo, hi) of each B group to one
// dotRowsSIMD call, which stores d or C + d itself, betaCombine's result
// for those betas (1·d is d). Other forms take four rows per call into a
// local block and combine in Go. Without AVX2 every element is one dot4.
func GemmNTRows(alpha float64, a, b Mat, beta float64, c Mat, lo, hi int) {
	kn, n := a.Cols, c.Cols
	if simdEnabled && lo < hi {
		if alpha == 1 && (beta == 0 || beta == 1) {
			for j := 0; j < b.Rows; j += 3 {
				nb := min(3, b.Rows-j)
				dotRowsSIMD(a.Data[lo*kn:hi*kn], b.Data[j*kn:(j+nb)*kn],
					c.Data[lo*n+j:(hi-1)*n+j+nb], kn, n, hi-lo, nb, beta == 1)
			}
			return
		}
		for i0 := lo; i0 < hi; i0 += 4 {
			i1 := min(i0+4, hi)
			for j := 0; j < b.Rows; j += 3 {
				nb := min(3, b.Rows-j)
				var d [12]float64 // dot j of row i at d[3(i-i0)+j]
				dotRowsSIMD(a.Data[i0*kn:i1*kn], b.Data[j*kn:(j+nb)*kn], d[:], kn, 3, i1-i0, nb, false)
				for i := i0; i < i1; i++ {
					crow := c.Row(i)[j : j+nb]
					for jj, dv := range d[(i-i0)*3 : (i-i0)*3+nb] {
						crow[jj] = betaCombine(beta, crow[jj], alpha*dv)
					}
				}
			}
		}
		return
	}
	for i0 := lo; i0 < hi; i0 += 4 {
		i1 := min(i0+4, hi)
		for j := 0; j < b.Rows; j++ {
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
	gemmAxpy(alpha, a.Data, 1, a.Cols, a.Rows, b, c, lo, hi, beta == 0)
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
