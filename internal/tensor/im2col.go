package tensor

// ConvShape describes a stride-1, same-padded 2-D convolution over a
// channels-first (C, H, W) input volume: an odd K×K kernel with K/2 zero
// rows and columns of padding on every side, so each output channel is an
// InH×InW plane like the input's.
type ConvShape struct {
	InC, InH, InW int // input channels / height / width
	K             int // kernel height and width, odd
}

// ColRows returns the number of rows of the im2col matrix: InC*K*K.
func (s ConvShape) ColRows() int { return s.InC * s.K * s.K }

// ColCols returns the number of columns of the im2col matrix, one per
// output position: InH*InW.
func (s ConvShape) ColCols() int { return s.InH * s.InW }

// valid returns the outputs [lo, hi) along a line of n (a row or a
// column of the plane) whose input under kernel tap t, at offset
// t − K/2, lies inside [0, n); every other output reads padding.
// 0 ≤ lo ≤ hi ≤ n holds even when the padding is wider than the input and
// the range is empty.
func (s ConvShape) valid(t, n int) (lo, hi int) {
	pad := s.K / 2
	lo = max(pad-t, 0)
	hi = min(max(n+pad-t, 0), n)
	return min(lo, hi), hi
}

// Im2Col unrolls the input volume (len = InC*InH*InW, channels-first) into
// col, a ColRows×ColCols row-major matrix, so that convolution becomes a
// single GEMM: out(OC × InH*InW) = W(OC × ColRows) · col. Out-of-bounds
// taps (padding) contribute zeros. Each (c, ky, kx) row is one contiguous
// run of the channel plane (im2colRun).
func Im2Col(s ConvShape, input, col []float64) {
	plane := s.ColCols()
	if len(input) != s.InC*plane {
		panic("tensor: Im2Col input size mismatch")
	}
	if len(col) != s.ColRows()*plane {
		panic("tensor: Im2Col col size mismatch")
	}
	r := 0
	for c := 0; c < s.InC; c++ {
		ch := input[c*plane : (c+1)*plane : (c+1)*plane]
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				s.im2colRun(ch, col[r*plane:(r+1)*plane], ky, kx)
				r++
			}
		}
	}
}

// im2colRun fills the im2col row dst of tap (ky, kx) from the channel
// plane. Output element o reads plane element o + shift,
// shift = (ky − K/2)·InW + kx − K/2, so every output row whose input row
// lies inside the plane is one copy, clipped to the plane. That copy also
// fills the |kx − K/2| columns of each row outside [lo, hi), which wrap
// to the neighbouring input row (or are clipped off): they are zeroed
// after it, with the output rows that read padding. The caller caps plane
// at its channel, so a run clipped late panics instead of reading the next
// channel.
func (s ConvShape) im2colRun(plane, dst []float64, ky, kx int) {
	w := s.InW
	lo, hi := s.valid(kx, w)
	yLo, yHi := s.valid(ky, s.InH)
	if lo == hi || yLo == yHi {
		clear(dst)
		return
	}
	clear(dst[:yLo*w])
	clear(dst[yHi*w:])
	shift := (ky-s.K/2)*w + kx - s.K/2
	a, e := max(yLo*w, -shift), min(yHi*w, len(plane)-shift)
	copy(dst[a:e], plane[a+shift:e+shift])
	edge, n := 0, lo // the wrapped columns: [0, lo) or [hi, w), never both
	if lo == 0 {
		edge, n = hi, w-hi
	}
	// Column by column, so the inner loop's trip count (the rows) does not
	// change with kx; a clear of one or two elements per row was slower
	// still than a loop per row.
	for j := yLo*w + edge; j < yLo*w+edge+n; j++ {
		for o := j; o < yHi*w; o += w {
			dst[o] = 0
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the columns back into an
// input-shaped gradient buffer. dInput is NOT zeroed first so contributions
// can accumulate across calls; callers zero it when starting a new sample.
//
// Each row adds only the runs of taps inside the plane (valid). Within one
// im2col row no two columns reach the same input element, so every dInput
// element receives at most one term per row, in ascending (c, ky, kx) row
// order. With AVX2 a row's runs are one addRowsSIMD call, whose adds keep
// that order and take dInput as the first operand, as the compiled
// dInput[i] += term does: where both are NaNs, dInput's payload is kept.
// (A race, coverage or fuzz build may compile the Go loop with the
// operands swapped.)
func Col2Im(s ConvShape, col, dInput []float64) {
	w, plane := s.InW, s.ColCols()
	if len(dInput) != s.InC*plane {
		panic("tensor: Col2Im input size mismatch")
	}
	if len(col) != s.ColRows()*plane {
		panic("tensor: Col2Im col size mismatch")
	}
	pad := s.K / 2
	r := 0
	for c := 0; c < s.InC; c++ {
		for ky := 0; ky < s.K; ky++ {
			yLo, yHi := s.valid(ky, s.InH)
			for kx := 0; kx < s.K; kx++ {
				lo, hi := s.valid(kx, w)
				src := col[r*plane : (r+1)*plane]
				r++
				if lo == hi || yLo == yHi {
					continue
				}
				d := c*plane + (yLo+ky-pad)*w + lo + kx - pad
				if simdEnabled {
					addRowsSIMD(src[yLo*w+lo:(yHi-1)*w+hi],
						dInput[d:d+(yHi-1-yLo)*w+hi-lo], yHi-yLo, hi-lo, w)
					continue
				}
				for oy := yLo; oy < yHi; oy++ {
					run := src[oy*w+lo : oy*w+hi]
					dst := dInput[d : d+len(run)]
					for j, v := range run {
						dst[j] += v
					}
					d += w
				}
			}
		}
	}
}
