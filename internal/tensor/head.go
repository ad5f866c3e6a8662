package tensor

import "math"

// The softmax head's kernels work on a chunk's logits held class-major: b
// samples over c classes as c rows of b, class j's row at z[j*b:(j+1)*b],
// so sample r is column r. A group of four samples is then four adjacent
// lanes of every class row, and each per-sample step of the head is one
// vertical 4-lane op per class: no horizontal reduction, no branch on the
// data. Each lane runs exactly the operations a row-at-a-time head runs on
// its sample, in the same order and with the same operand roles, so the
// results are its bits, NaN payloads included: where both operands of an
// add or a multiply can be NaNs, the one named first is the one an x86
// instruction with it as first source keeps, and the Go steps pin that
// with nanFirstAdd and nanFirstMul, whatever operand order the compiler
// picks. With AVX2 the kernels take the first b&^3 samples four at a time;
// the last b%4, and every sample without AVX2, go through the same steps
// in Go. The Go products that feed an add are rounded on their own
// (float64(x*y)), so no architecture fuses them.

// TransposeInto writes srcᵀ into dst, adding bias[i] to every element of
// dst's row i when bias is non-nil, as bias[i] + src (AddRowVec's operand
// roles). src is n×m and dst m×n; len(bias) must be m when given.
func TransposeInto(dst, src Mat, bias []float64) {
	n, m := src.Rows, src.Cols
	if dst.Rows != m || dst.Cols != n || (bias != nil && len(bias) != m) {
		panic("tensor: TransposeInto dimension mismatch")
	}
	r0 := 0
	if simdEnabled && n >= 4 && m > 0 {
		transposeSIMD(dst.Data, src.Data, n, m, bias)
		r0 = n &^ 3
	}
	for i := 0; i < m; i++ {
		row := dst.Data[i*n : (i+1)*n]
		if bias == nil {
			for r := r0; r < n; r++ {
				row[r] = src.Data[r*m+i]
			}
			continue
		}
		bv := bias[i]
		for r := r0; r < n; r++ {
			row[r] = nanFirstAdd(bv, src.Data[r*m+i])
		}
	}
}

// HeadMaxShift finds each sample's first strict maximum over the c
// classes of the class-major block z (mathx.ArgMax's: a NaN never
// replaces the running maximum, but stays when it comes first, and a tie
// keeps the earlier value, so +0 after −0 stays −0), writes it to mx[r],
// and subtracts it from every logit of the sample (logit − max).
func HeadMaxShift(z []float64, b, c int, mx []float64) {
	z, mx = z[:b*c], mx[:b]
	r0 := 0
	if simdEnabled && b >= 4 && c > 0 {
		headMaxShiftSIMD(z, b, c, mx)
		r0 = b &^ 3
	}
	for r := r0; r < b; r++ {
		m := z[r]
		for j := 1; j < c; j++ {
			if v := z[j*b+r]; v > m {
				m = v
			}
		}
		mx[r] = m
		for j := 0; j < c; j++ {
			z[j*b+r] -= m
		}
	}
}

// HeadSums writes to s[r] the sum of sample r's c entries of the
// class-major block z, added in ascending class order from +0.
func HeadSums(z []float64, b, c int, s []float64) {
	z, s = z[:b*c], s[:b]
	r0 := 0
	if simdEnabled && b >= 4 && c > 0 {
		headSumsSIMD(z, b, c, s)
		r0 = b &^ 3
	}
	for r := r0; r < b; r++ {
		var sum float64
		for j := 0; j < c; j++ {
			sum = nanFirstAdd(sum, z[j*b+r])
		}
		s[r] = sum
	}
}

// HeadGrad turns the exponentials in the class-major block z into the
// softmax cross-entropy gradient: with s[r] sample r's sum and y[r] its
// label, entry (j, r) becomes ((e·(1/s[r])) − 1{j = y[r]})·inv. With a
// non-nil db (length c) it also adds every sample's entry p of class j
// into db[j], in ascending sample order, as p + db[j] (the bias gradient's
// column sums, with ColSumsAcc's operand roles).
func HeadGrad(z []float64, b, c int, s []float64, y []int, inv float64, db []float64) {
	z, s, y = z[:b*c], s[:b], y[:b]
	if db != nil {
		db = db[:c]
	}
	r0 := 0
	if simdEnabled && b >= 4 && c > 0 {
		headGradSIMD(z, b, c, s, y, inv, db)
		r0 = b &^ 3
	}
	for r := r0; r < b; r++ {
		rs := 1 / s[r]
		for j := 0; j < c; j++ {
			p := nanFirstMul(z[j*b+r], rs)
			if j == y[r] {
				p -= 1
			}
			p = float64(p * inv)
			z[j*b+r] = p
			if db != nil {
				db[j] = nanFirstAdd(p, db[j])
			}
		}
	}
}

// nanFirstAdd returns x + y, and x (quieted, as x + x) when x is a NaN:
// the NaN an x86 add with x as its first source keeps when both operands
// are NaNs. The Go compiler orders a commutative add's operands as it
// likes; this pins them.
func nanFirstAdd(x, y float64) float64 {
	if x != x {
		return x + x
	}
	return x + y
}

// nanFirstMul is nanFirstAdd for x·y, rounded on its own.
func nanFirstMul(x, y float64) float64 {
	if x != x {
		return x + x
	}
	return float64(x * y)
}

// HeadLoss returns sum plus every sample's loss term lse − zy[r], added in
// ascending sample order as sum + term, where lse is log(s[r]) + mx[r] (or
// −Inf where the sample's max mx[r] is −Inf) and zy[r] is its label's
// logit before the shift.
func HeadLoss(sum float64, mx, s, zy []float64) float64 {
	s, zy = s[:len(mx)], zy[:len(mx)]
	for r, m := range mx {
		lse := math.Inf(-1)
		if !math.IsInf(m, -1) {
			lse = nanFirstAdd(math.Log(s[r]), m)
		}
		sum = nanFirstAdd(sum, lse-zy[r])
	}
	return sum
}

// HeadArgMax writes to pred[r] the class of sample r's first strict
// maximum in the class-major block z, mathx.ArgMax's choice: a tie keeps
// the earlier class and a NaN never wins (one at class 0 is never
// replaced).
func HeadArgMax(pred []int, z []float64, b, c int) {
	z, pred = z[:b*c], pred[:b]
	r0 := 0
	if simdEnabled && b >= 4 && c > 0 {
		headArgMaxSIMD(pred, z, b, c)
		r0 = b &^ 3
	}
	for r := r0; r < b; r++ {
		best, bi := z[r], 0
		for j := 1; j < c; j++ {
			if v := z[j*b+r]; v > best {
				best, bi = v, j
			}
		}
		pred[r] = bi
	}
}
